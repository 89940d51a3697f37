package grid

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"stwave/internal/num"
)

// Raw volume I/O. Simulation outputs and the paper's accounting both use
// 4-byte (float32) little-endian samples, the one raw format.
//
// The reader and writer move data in fixed-size slabs — one buffered
// syscall-sized chunk at a time, converted in place — instead of a
// per-sample loop. On the float32 pipeline a float32 file fills a
// Field3D32 with no intermediate float64 widen pass at all.

// ioSlab is the number of samples converted per buffered chunk (256 KiB
// at float32): large enough to amortize the write syscall, small enough
// to stay cache-resident while converting.
const ioSlab = 1 << 16

// WriteRawFloat32 streams the field as little-endian float32 samples
// (rounding once per sample when F is float64).
func (f *Field3DOf[F]) WriteRawFloat32(w io.Writer) error {
	buf := make([]byte, 4*ioSlab)
	data := f.Data
	for len(data) > 0 {
		n := len(data)
		if n > ioSlab {
			n = ioSlab
		}
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(v)))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// ReadRawFloat32Of reads nx*ny*nz little-endian float32 samples into a new
// field at precision F. With F = float32 the samples land in the field
// bit-for-bit with no widening; with F = float64 each is widened exactly.
func ReadRawFloat32Of[F num.Float](r io.Reader, nx, ny, nz int) (*Field3DOf[F], error) {
	f := NewField3DOf[F](nx, ny, nz)
	buf := make([]byte, 4*ioSlab)
	data := f.Data
	for off := 0; off < len(data); {
		n := min(len(data)-off, ioSlab)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return nil, fmt.Errorf("grid: reading samples %d..%d/%d: %w", off, off+n, len(data), err)
		}
		for i := range data[off : off+n] {
			data[off+i] = F(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		off += n
	}
	return f, nil
}

// SaveRawFile writes the field to path as float32 samples.
func (f *Field3DOf[F]) SaveRawFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteRawFloat32(file); err != nil {
		return err
	}
	return file.Close()
}

// LoadRawFileOf reads a float32 raw volume from path at precision F.
func LoadRawFileOf[F num.Float](path string, nx, ny, nz int) (*Field3DOf[F], error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return ReadRawFloat32Of[F](file, nx, ny, nz)
}

// RawSizeBytes returns the on-disk size of the field at the given bytes per
// sample (4 for float32, 8 for float64).
func (f *Field3DOf[F]) RawSizeBytes(bytesPerSample int) int64 {
	return int64(f.Dims.Len()) * int64(bytesPerSample)
}
