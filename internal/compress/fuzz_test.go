package compress

import (
	"bytes"
	"testing"
)

// FuzzReadSparseBlock: the sparse decoder must never panic and must only
// accept self-consistent blocks.
func FuzzReadSparseBlock(f *testing.F) {
	coeffs := make([]float64, 64)
	coeffs[3], coeffs[40] = 1.5, -2.25
	var buf bytes.Buffer
	if _, err := sparseBlock(coeffs).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadSparseBlock(bytes.NewReader(data))
		if err != nil {
			return
		}
		if b.Retained() > b.Total {
			t.Fatalf("retained %d > total %d accepted", b.Retained(), b.Total)
		}
		if err := DecodeInto(b, make([]float64, b.Total), 2); err != nil {
			t.Fatalf("accepted block does not decode: %v", err)
		}
	})
}

// FuzzReadDeflatedSparseBlock covers the DEFLATE framing path.
func FuzzReadDeflatedSparseBlock(f *testing.F) {
	coeffs := make([]float64, 32)
	coeffs[5] = 9
	var buf bytes.Buffer
	if _, err := sparseBlock(coeffs).WriteDeflated(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadDeflatedSparseBlock(bytes.NewReader(data))
		if err != nil {
			return
		}
		if b.Retained() > b.Total {
			t.Fatalf("retained %d > total %d accepted", b.Retained(), b.Total)
		}
	})
}
