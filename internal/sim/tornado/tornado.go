// Package tornado implements a semi-analytic supercell tornado model
// standing in for the CM1 F5-tornado simulation the paper evaluates on
// (Section V-A3 and the Section VI case studies).
//
// The model composes, at every instant:
//
//   - a translating, slowly intensifying Burgers-Rott primary vortex
//     (tangential swirl with a finite core, low-level radial inflow, and a
//     core updraft that peaks at mid levels),
//   - two sub-vortices ("suction vortices") orbiting the primary core, and
//   - broadband turbulent perturbations from a kinematic Fourier-mode
//     ensemble with fast temporal decorrelation.
//
// That last ingredient is what gives the model the paper's key Tornado
// property: markedly *less* spatial and temporal coherence than the Ghost
// and CloverLeaf data, which is what drives the paper's weaker (sometimes
// negative) 4D-compression results on this data set.
//
// Derived scalar fields follow the paper's variable list: pressure
// perturbation (cyclostrophic balance with the swirl), cloud mixing ratio
// (condensation where the updraft is strong, with sharp cloud edges), and
// enstrophy (finite-difference curl magnitude squared).
package tornado

import (
	"fmt"
	"math"

	"stwave/internal/sim/synth"
)

// Config describes the model domain and vortex parameters. Distances are in
// meters, times in seconds, velocities in m/s — the units of the paper's
// Section VI analysis (e.g. deviation thresholds D in meters).
type Config struct {
	// Grid extents (cells per axis).
	Nx, Ny, Nz int
	// Physical domain size in meters. The paper's analysis subdomain is
	// 14670 x 14670 x 8370 m on a 490x490x280 grid.
	Lx, Ly, Lz float64
	// CoreRadius is the initial vortex core radius (m).
	CoreRadius float64
	// MaxSwirl is the peak tangential wind at the core radius (m/s); F5
	// tornadoes exceed 117 m/s.
	MaxSwirl float64
	// Translation is the storm motion vector (m/s).
	TranslationX, TranslationY float64
	// IntensificationPeriod is the period (s) of the slow strengthening /
	// weakening cycle of the vortex.
	IntensificationPeriod float64
	// SubVortices is the number of orbiting suction vortices.
	SubVortices int
	// TurbulenceAmplitude scales the broadband perturbation velocity
	// (m/s); this is the coherence-destroying ingredient.
	TurbulenceAmplitude float64
	// TurbulenceTimeScale sets perturbation decorrelation (s); smaller
	// means less temporal coherence.
	TurbulenceTimeScale float64
	// Seed fixes the turbulent ensemble.
	Seed int64
}

// DefaultConfig returns a domain-scaled configuration. The grid is reduced
// relative to the paper's 490²x280 so experiments run at laptop scale, but
// the physical domain and wind speeds match.
func DefaultConfig(nx, ny, nz int) Config {
	// Keep the vortex core resolved at any grid: the paper's grid puts ~12
	// cells across the core; below ~3 cells the swirl aliases into noise.
	core := 350.0
	if nx > 0 {
		if minCore := 3 * 14670.0 / float64(nx); minCore > core {
			core = minCore
		}
	}
	return Config{
		Nx: nx, Ny: ny, Nz: nz,
		Lx: 14670, Ly: 14670, Lz: 8370,
		CoreRadius:            core,
		MaxSwirl:              120,
		TranslationX:          12,
		TranslationY:          5,
		IntensificationPeriod: 300,
		SubVortices:           2,
		TurbulenceAmplitude:   9,
		TurbulenceTimeScale:   25,
		Seed:                  7,
	}
}

// The turbulence field is 2π-periodic per unit coordinate; the wind and
// the pressure perturbation stretch that many half-periods of it over the
// domain, so a point at x meters reads it at waves·π·x/Lx.
const (
	velocityWaves      = 8
	pressureWaves      = 6
	pressureTurbulence = 25 // amplitude of the broadband pressure term (Pa)
)

// Model samples the analytic tornado at arbitrary points and times.
type Model struct {
	cfg  Config
	turb *synth.Field
}

// NewModel validates cfg and builds the turbulent ensemble.
func NewModel(cfg Config) (*Model, error) {
	if cfg.Nx < 2 || cfg.Ny < 2 || cfg.Nz < 2 {
		return nil, fmt.Errorf("tornado: grid extents must be >= 2, got %dx%dx%d", cfg.Nx, cfg.Ny, cfg.Nz)
	}
	if cfg.Lx <= 0 || cfg.Ly <= 0 || cfg.Lz <= 0 {
		return nil, fmt.Errorf("tornado: domain size must be positive")
	}
	if cfg.CoreRadius <= 0 {
		return nil, fmt.Errorf("tornado: core radius must be positive")
	}
	tcfg := synth.Config{
		Modes:         48,
		MaxWavenumber: 16,
		SpectrumSlope: 11.0 / 6.0,
		TimeScale:     cfg.TurbulenceTimeScale,
		Seed:          cfg.Seed,
	}
	turb, err := synth.NewField(tcfg)
	if err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, turb: turb}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// center returns the vortex center at time t.
func (m *Model) center(t float64) (cx, cy float64) {
	// Start at 1/3 of the domain and translate with the storm motion,
	// wrapping to stay inside.
	cx = m.cfg.Lx/3 + m.cfg.TranslationX*t
	cy = m.cfg.Ly/3 + m.cfg.TranslationY*t
	cx = math.Mod(cx, m.cfg.Lx)
	cy = math.Mod(cy, m.cfg.Ly)
	if cx < 0 {
		cx += m.cfg.Lx
	}
	if cy < 0 {
		cy += m.cfg.Ly
	}
	return cx, cy
}

// intensity returns the slow strengthening factor in [0.75, 1.25].
func (m *Model) intensity(t float64) float64 {
	return 1 + 0.25*math.Sin(2*math.Pi*t/m.cfg.IntensificationPeriod)
}

// swirl returns the Burgers-Rott tangential wind at radius r for a vortex
// with core radius rc and peak speed vmax.
func swirl(r, rc, vmax float64) float64 {
	if r < 1e-9 {
		return 0
	}
	// Burgers-Rott: v(r) = Γ/(2πr) (1 - exp(-α r²/rc²)); normalize so the
	// peak equals vmax near r = rc. α = 1.2564 puts the maximum at r = rc.
	const alpha = 1.2564312086261696
	peak := (1 - math.Exp(-alpha)) // value of the bracket at r = rc
	return vmax * (rc / r) * (1 - math.Exp(-alpha*r*r/(rc*rc))) / peak
}

// heightProfile tapers vortex strength with height: strongest near the
// surface, decaying aloft.
func (m *Model) heightProfile(z float64) float64 {
	return math.Exp(-z / (0.6 * m.cfg.Lz))
}

// VelocityAt returns the wind vector (m/s) at point (x, y, z) meters and
// time t seconds: the analytic wind plus broadband turbulence.
func (m *Model) VelocityAt(x, y, z, t float64) (u, v, w float64) {
	u, v, w = m.windAt(x, y, z, t)
	tx, ty, tz := m.turb.VelocityAt(
		velocityWaves*math.Pi*x/m.cfg.Lx, velocityWaves*math.Pi*y/m.cfg.Ly, velocityWaves*math.Pi*z/m.cfg.Lz, t)
	return u + m.cfg.TurbulenceAmplitude*tx, v + m.cfg.TurbulenceAmplitude*ty, w + m.cfg.TurbulenceAmplitude*tz
}

// windAt is the analytic part of VelocityAt: the vortices and the
// storm-relative environmental flow, without the turbulence.
func (m *Model) windAt(x, y, z, t float64) (u, v, w float64) {
	cx, cy := m.center(t)
	amp := m.intensity(t)
	hp := m.heightProfile(z)

	addVortex := func(vx, vy, rc, vmax, wmax float64) {
		dx := x - vx
		dy := y - vy
		r := math.Hypot(dx, dy)
		vt := swirl(r, rc, vmax) * hp
		if r > 1e-9 {
			// Tangential (counter-clockwise) + radial inflow near ground.
			inflow := -0.35 * vt * math.Exp(-z/(0.12*m.cfg.Lz))
			u += (-dy/r)*vt + (dx/r)*inflow
			v += (dx/r)*vt + (dy/r)*inflow
		}
		// Core updraft, peaking at mid level.
		zfrac := z / m.cfg.Lz
		w += wmax * math.Exp(-r*r/(2*rc*rc)) * 4 * zfrac * (1 - zfrac)
	}

	// Primary vortex.
	addVortex(cx, cy, m.cfg.CoreRadius, m.cfg.MaxSwirl*amp, 0.55*m.cfg.MaxSwirl*amp)

	// Orbiting sub-vortices.
	for sv := 0; sv < m.cfg.SubVortices; sv++ {
		phase := 2*math.Pi*float64(sv)/float64(max(m.cfg.SubVortices, 1)) +
			t*m.cfg.MaxSwirl/(2*m.cfg.CoreRadius) // orbital angular rate
		orbitR := 1.6 * m.cfg.CoreRadius
		svx := cx + orbitR*math.Cos(phase)
		svy := cy + orbitR*math.Sin(phase)
		addVortex(svx, svy, 0.35*m.cfg.CoreRadius, 0.4*m.cfg.MaxSwirl*amp, 0.25*m.cfg.MaxSwirl*amp)
	}

	// Storm-relative environmental flow.
	return u + m.cfg.TranslationX, v + m.cfg.TranslationY, w
}

// PressurePerturbationAt returns the cyclostrophic pressure deficit (Pa) at
// a point: p' ≈ -ρ v_peak² exp(-r²/rc²) scaled by the height profile, the
// closed-form balance for a Gaussian swirl core.
func (m *Model) PressurePerturbationAt(x, y, z, t float64) float64 {
	// Small broadband component so the field is not perfectly smooth.
	return m.pressureAt(x, y, z, t) + pressureTurbulence*m.turb.ScalarAt(
		pressureWaves*math.Pi*x/m.cfg.Lx, pressureWaves*math.Pi*y/m.cfg.Ly, pressureWaves*math.Pi*z/m.cfg.Lz, t)
}

// pressureAt is the analytic part of PressurePerturbationAt.
func (m *Model) pressureAt(x, y, z, t float64) float64 {
	const rhoAir = 1.1
	cx, cy := m.center(t)
	amp := m.intensity(t)
	hp := m.heightProfile(z)
	dx := x - cx
	dy := y - cy
	r2 := dx*dx + dy*dy
	rc := m.cfg.CoreRadius
	vmax := m.cfg.MaxSwirl * amp * hp
	return -rhoAir * vmax * vmax * math.Exp(-r2/(rc*rc))
}

// CloudMixingRatioAt returns the cloud water mixing ratio (g/kg) at a
// point. Cloud forms where the updraft exceeds a condensation threshold at
// cloud-bearing heights, producing the sharp-edged field the paper
// describes as "what the clouds look like to human eyes".
func (m *Model) CloudMixingRatioAt(x, y, z, t float64) float64 {
	_, _, w := m.VelocityAt(x, y, z, t)
	return m.cloudOf(w, z)
}

// cloudOf is the mixing ratio at height z given the updraft w there.
func (m *Model) cloudOf(w, z float64) float64 {
	zfrac := z / m.cfg.Lz
	// Cloud base around 0.15 Lz; deep cloud above.
	heightFactor := sigmoid((zfrac - 0.15) * 20)
	// Condensation: sharp onset above ~2 m/s updraft.
	condensation := sigmoid((w - 2.0) / 1.5)
	q := 3.2 * heightFactor * condensation
	// Ambient stratiform deck aloft.
	q += 0.6 * sigmoid((zfrac-0.55)*14)
	if q < 0 {
		q = 0
	}
	return q
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
