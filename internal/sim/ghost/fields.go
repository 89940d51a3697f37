package ghost

import "stwave/internal/grid"

// VelocityX returns only the X-velocity component — the variable the
// paper's Figure 2/3 experiments use.
func (s *Solver) VelocityX() *grid.Field3D {
	copy(s.phys[0], s.uh[0])
	s.plan.Inverse(s.phys[0])
	f := grid.NewField3D(s.n, s.n, s.n)
	for i := range f.Data {
		f.Data[i] = real(s.phys[0][i])
	}
	return f
}

// Enstrophy returns the point-wise enstrophy density |ω|² where ω = ∇×u is
// computed spectrally.
func (s *Solver) Enstrophy() *grid.Field3D {
	n := s.n
	// ω̂_x = i(k_y û_z - k_z û_y), cyclic.
	curl := func(a, b int, ka, kb func(x, y, z int) float64, dst []complex128) {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				base := (z*n + y) * n
				for x := 0; x < n; x++ {
					idx := base + x
					va := s.uh[b][idx]
					vb := s.uh[a][idx]
					kA := ka(x, y, z)
					kB := kb(x, y, z)
					// i*(kA*u_b - kB*u_a)
					re := -(kA*imag(va) - kB*imag(vb))
					im := kA*real(va) - kB*real(vb)
					dst[idx] = complex(re, im)
				}
			}
		}
		s.plan.Inverse(dst)
	}
	kx := func(x, y, z int) float64 { return s.k[x] }
	ky := func(x, y, z int) float64 { return s.k[y] }
	kz := func(x, y, z int) float64 { return s.k[z] }

	wx := s.grad[0][0]
	wy := s.grad[0][1]
	wz := s.grad[0][2]
	curl(1, 2, ky, kz, wx) // ω_x = ∂_y u_z - ∂_z u_y
	curl(2, 0, kz, kx, wy) // ω_y = ∂_z u_x - ∂_x u_z
	curl(0, 1, kx, ky, wz) // ω_z = ∂_x u_y - ∂_y u_x

	f := grid.NewField3D(n, n, n)
	for i := range f.Data {
		ox, oy, oz := real(wx[i]), real(wy[i]), real(wz[i])
		f.Data[i] = ox*ox + oy*oy + oz*oz
	}
	return f
}
