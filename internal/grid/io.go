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

// ReadRawFloat32Into fills dst with little-endian float32 samples read
// from r. With F = float32 the samples land in the field bit-for-bit with
// no widening; with F = float64 each is widened exactly.
func ReadRawFloat32Into[F num.Float](r io.Reader, dst *Field3DOf[F]) error {
	buf := make([]byte, 4*ioSlab)
	data := dst.Data
	for off := 0; off < len(data); {
		n := min(len(data)-off, ioSlab)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return fmt.Errorf("grid: reading samples %d..%d/%d: %w", off, off+n, len(data), err)
		}
		for i := range data[off : off+n] {
			data[off+i] = F(math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		off += n
	}
	return nil
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

// LoadRawFileOf reads a float32 raw volume from path at precision F. The
// file size is checked before the field is allocated, so dims far larger
// than the file fail without asking for their memory.
func LoadRawFileOf[F num.Float](path string, nx, ny, nz int) (*Field3DOf[F], error) {
	if err := CheckRawFile(path, Dims{Nx: nx, Ny: ny, Nz: nz}); err != nil {
		return nil, err
	}
	f := NewField3DOf[F](nx, ny, nz)
	if err := LoadRawFileInto(path, f); err != nil {
		return nil, err
	}
	return f, nil
}

// LoadRawFileInto reads the float32 raw volume at path into dst; the file
// must pass CheckRawFile for dst's dims.
func LoadRawFileInto[F num.Float](path string, dst *Field3DOf[F]) error {
	if err := CheckRawFile(path, dst.Dims); err != nil {
		return err
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	return ReadRawFloat32Into(file, dst)
}

// CheckRawFile reports an error unless path holds exactly one float32 raw
// volume of dims, so wrong dims never load the prefix of a larger volume
// or ask for a volume larger than the file.
func CheckRawFile(path string, dims Dims) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if want := 4 * int64(dims.Len()); st.Size() != want {
		return fmt.Errorf("grid: %s holds %d bytes, want %d for %v float32 samples", path, st.Size(), want, dims)
	}
	return nil
}

// RawSizeBytes returns the on-disk size of the field at the given bytes per
// sample (4 for float32, 8 for float64).
func (f *Field3DOf[F]) RawSizeBytes(bytesPerSample int) int64 {
	return int64(f.Dims.Len()) * int64(bytesPerSample)
}
