package storage

import (
	"bytes"
	"os"
	"testing"

	"stwave/internal/core"
)

type bytesReaderCloser struct{ *bytes.Reader }

func (bytesReaderCloser) Close() error { return nil }

// FuzzOpenContainer hammers the container index parser and journal
// scanner with mutated container images: they must reject or accept
// without panicking or over-allocating, every accepted window must read
// without panicking, and the scanner must never error on in-memory
// inputs.
func FuzzOpenContainer(f *testing.F) {
	// Seed with a real two-window container image.
	dir := f.TempDir()
	path := dir + "/seed.stw"
	buildFramed(f, path, 2)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])           // torn footer
	f.Add(seed[:core.RecordHeaderSize]) // lone frame header
	f.Add([]byte("STW3"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		r, err := NewContainerReader(bytesReaderCloser{bytes.NewReader(data)}, size)
		if err == nil {
			// Accepted: every window must be readable or fail cleanly.
			// Any error is fine; the assertion is no panic.
			for i := 0; i < r.NumWindows(); i++ {
				_, _ = r.ReadWindow(i)
			}
		}
		// The journal scanner must handle the same image without error:
		// in-memory reads cannot fail, so a scan always produces a report.
		rep, err := ScanContainer(bytes.NewReader(data), size)
		if err != nil {
			t.Fatalf("scan errored on in-memory image: %v", err)
		}
		if rep.Good+len(rep.Corrupt) != len(durableFrames(rep)) {
			t.Fatalf("scan counts inconsistent: %d good + %d corrupt != %d durable",
				rep.Good, len(rep.Corrupt), len(durableFrames(rep)))
		}
	})
}
