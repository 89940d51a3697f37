package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"stwave/internal/core"
	"stwave/internal/grid"
	"stwave/internal/metrics"
	"stwave/internal/storage"
)

// Table1Row is one technique row of Table I.
type Table1Row struct {
	Tech string // "4D", "3D", "Raw"
	// Simulated I/O costs from the tiered-storage model.
	BufferWrite, BufferRead, PermWrite, TotalIO time.Duration
	// FileSize is the bytes landed on permanent storage.
	FileSize int64
	// CompTime is the measured wall-clock compression + decompression-free
	// computational cost.
	CompTime time.Duration
	// Error is the NRMSE of the reconstruction (0 for Raw).
	Error float64
}

// Table1Result holds the three rows plus a projection of the same pipeline
// at the paper's full data size.
type Table1Result struct {
	// Dims and Slices describe the measured workload.
	Dims   grid.Dims
	Slices int
	// Measured rows at this scale.
	Rows []Table1Row
	// Projected rows scale the measured compute throughput and the modeled
	// I/O to the paper's workload (20 slices of 512³ float32 = 10 GB).
	Projected []Table1Row
}

// RunTable1 reproduces Table I: a 20-slice window of Ghost enstrophy at
// 16:1, processed with 4D, 3D, and no compression through the tiered
// storage stack (real buffer files for staging, modeled I/O costs, real
// compute timing).
func RunTable1(sc Scale, progress io.Writer) (*Table1Result, error) {
	seq, err := GhostSeries(sc, GhostEnstrophy)
	if err != nil {
		return nil, err
	}
	const slices = 20
	if seq.Len() < slices {
		return nil, fmt.Errorf("experiments: need %d slices, have %d", slices, seq.Len())
	}
	win := grid.NewWindow(seq.Dims)
	for i := 0; i < slices; i++ {
		if err := win.Append(seq.Slices[i], seq.Times[i]); err != nil {
			return nil, err
		}
	}
	rawBytes := int64(win.TotalSamples()) * 4
	res := &Table1Result{Dims: seq.Dims, Slices: slices}

	scratch, err := os.MkdirTemp("", "stwave-table1-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	nrmse := func(recon *grid.Window) (float64, error) {
		ac := metrics.NewAccumulator()
		for i := range win.Slices {
			if err := ac.Add(win.Slices[i].Data, recon.Slices[i].Data); err != nil {
				return 0, err
			}
		}
		return ac.NRMSE(), nil
	}

	// --- 4D: stage slices on the buffer, read back, compress, write. ---
	fprintf(progress, "table1: 4D pipeline\n")
	{
		model := storage.DefaultModel()
		buf, err := storage.NewBurstBuffer(scratch, model, win.Dims)
		if err != nil {
			return nil, err
		}
		ids := make([]int, win.Len())
		for i, s := range win.Slices {
			if ids[i], err = buf.PutSlice(s); err != nil {
				return nil, err
			}
		}
		staged := grid.NewWindow(win.Dims)
		for i, id := range ids {
			f, err := buf.GetSlice(id)
			if err != nil {
				return nil, err
			}
			if err := staged.Append(f, win.Times[i]); err != nil {
				return nil, err
			}
		}
		opts := BaseOptions4D(16, slices, sc.Workers)
		comp, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		// The slices were just read back from the buffer, so the
		// window is ours to transform.
		cw, err := core.Compress(context.Background(), comp, staged, core.InPlace)
		if err != nil {
			return nil, err
		}
		compTime := time.Since(start)
		size := cw.IdealSizeBytes()
		if _, err := model.RecordWrite(storage.Permanent, size); err != nil {
			return nil, err
		}
		recon, err := core.Decompress(cw)
		if err != nil {
			return nil, err
		}
		e, err := nrmse(recon)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Tech:        "4D",
			BufferWrite: model.WriteTime(storage.Buffer),
			BufferRead:  model.ReadTime(storage.Buffer),
			PermWrite:   model.WriteTime(storage.Permanent),
			TotalIO:     model.TotalIO(),
			FileSize:    size,
			CompTime:    compTime,
			Error:       e,
		})
	}

	// --- 3D: compress slices in memory, no buffer traffic. ---
	fprintf(progress, "table1: 3D pipeline\n")
	{
		model := storage.DefaultModel()
		comp, err := core.New(BaseOptions3D(16, sc.Workers))
		if err != nil {
			return nil, err
		}
		recon := grid.NewWindow(win.Dims)
		var size int64
		var compTime time.Duration
		for i, s := range win.Slices {
			single := grid.NewWindow(win.Dims)
			if err := single.Append(s, win.Times[i]); err != nil {
				return nil, err
			}
			start := time.Now()
			cw, err := core.Compress(context.Background(), comp, single, core.Copy)
			if err != nil {
				return nil, err
			}
			compTime += time.Since(start)
			size += cw.IdealSizeBytes()
			if _, err := model.RecordWrite(storage.Permanent, cw.IdealSizeBytes()); err != nil {
				return nil, err
			}
			rw, err := core.Decompress(cw)
			if err != nil {
				return nil, err
			}
			if err := recon.Append(rw.Slices[0], win.Times[i]); err != nil {
				return nil, err
			}
		}
		e, err := nrmse(recon)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Tech:      "3D",
			PermWrite: model.WriteTime(storage.Permanent),
			TotalIO:   model.TotalIO(),
			FileSize:  size,
			CompTime:  compTime,
			Error:     e,
		})
	}

	// --- Raw: write everything to permanent storage. ---
	{
		model := storage.DefaultModel()
		if _, err := model.RecordWrite(storage.Permanent, rawBytes); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Tech:      "Raw",
			PermWrite: model.WriteTime(storage.Permanent),
			TotalIO:   model.TotalIO(),
			FileSize:  rawBytes,
		})
	}

	if err := res.project(); err != nil {
		return nil, err
	}
	return res, nil
}

// project scales the measured rows to the paper's 10 GB workload: I/O from
// the bandwidth model (exact), compute from measured per-sample throughput.
func (r *Table1Result) project() error {
	paperSamples := int64(20) * 512 * 512 * 512
	paperBytes := paperSamples * 4
	ourSamples := int64(r.Slices) * int64(r.Dims.Len())
	scale := float64(paperSamples) / float64(ourSamples)
	model := storage.DefaultModel()
	for _, row := range r.Rows {
		p := Table1Row{Tech: row.Tech, Error: row.Error}
		p.CompTime = time.Duration(float64(row.CompTime) * scale)
		p.FileSize = int64(float64(row.FileSize) * scale)
		switch row.Tech {
		case "4D":
			bw, err := model.WriteCost(storage.Buffer, paperBytes)
			if err != nil {
				return err
			}
			br, err := model.ReadCost(storage.Buffer, paperBytes)
			if err != nil {
				return err
			}
			pw, err := model.WriteCost(storage.Permanent, p.FileSize)
			if err != nil {
				return err
			}
			p.BufferWrite, p.BufferRead, p.PermWrite = bw, br, pw
			p.TotalIO = bw + br + pw
		case "3D":
			pw, err := model.WriteCost(storage.Permanent, p.FileSize)
			if err != nil {
				return err
			}
			p.PermWrite, p.TotalIO = pw, pw
		case "Raw":
			pw, err := model.WriteCost(storage.Permanent, paperBytes)
			if err != nil {
				return err
			}
			p.FileSize = paperBytes
			p.PermWrite, p.TotalIO = pw, pw
		}
		r.Projected = append(r.Projected, p)
	}
	return nil
}

// Row returns the measured row for a technique, or nil.
func (r *Table1Result) Row(tech string) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].Tech == tech {
			return &r.Rows[i]
		}
	}
	return nil
}

// ProjectedRow returns the projected row for a technique, or nil.
func (r *Table1Result) ProjectedRow(tech string) *Table1Row {
	for i := range r.Projected {
		if r.Projected[i].Tech == tech {
			return &r.Projected[i]
		}
	}
	return nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fGB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0fMB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.0fKB", float64(n)/1e3)
	}
	return fmt.Sprintf("%dB", n)
}

// Write renders both the measured and projected tables.
func (r *Table1Result) Write(w io.Writer) {
	hdr := func(title string) {
		fmt.Fprintf(w, "%s\n%-5s %12s %12s %12s %10s %12s %10s\n",
			title, "Tech.", "Buffer W+R", "Perm. Write", "Total I/O", "File Size", "Comp. Time", "Error")
	}
	rows := func(rows []Table1Row) {
		for _, row := range rows {
			fmt.Fprintf(w, "%-5s %5.2f+%5.2fs %11.2fs %11.2fs %10s %11.2fs %10.2e\n",
				row.Tech,
				row.BufferWrite.Seconds(), row.BufferRead.Seconds(),
				row.PermWrite.Seconds(), row.TotalIO.Seconds(),
				fmtBytes(row.FileSize), row.CompTime.Seconds(), row.Error)
		}
	}
	hdr(fmt.Sprintf("Table I (measured at %v x %d slices, 16:1, Ghost enstrophy)", r.Dims, r.Slices))
	rows(r.Rows)
	hdr("Table I (projected to the paper's 20 x 512^3 = 10 GB workload)")
	rows(r.Projected)
}
