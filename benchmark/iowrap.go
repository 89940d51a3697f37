package main

import (
	"os"
	"sync/atomic"
	"time"
)

// countingFile wraps the container file behind storage.WritableFile: it
// counts every write and fsync and timestamps each fsync's return, which is the moment a window's record becomes durable. With a
// recorder attached (traced pass) each call is also a span. The container
// writer calls it from one goroutine at a time.
type countingFile struct {
	f   *os.File
	rec *recorder

	writes, syncs int
	bytes         int64
	syncDone      []time.Time
	syncCPU       []time.Duration // process CPU at each fsync's return
}

func (c *countingFile) WriteAt(p []byte, off int64) (int, error) {
	id := c.rec.begin("storage.write")
	n, err := c.f.WriteAt(p, off)
	c.rec.end(id)
	c.writes++
	c.bytes += int64(n)
	return n, err
}

func (c *countingFile) Sync() error {
	id := c.rec.begin("storage.fsync")
	err := c.f.Sync()
	done := time.Now()
	c.rec.end(id)
	c.syncs++
	c.syncDone = append(c.syncDone, done)
	c.syncCPU = append(c.syncCPU, processCPU())
	return err
}

func (c *countingFile) Truncate(size int64) error { return c.f.Truncate(size) }
func (c *countingFile) Close() error              { return c.f.Close() }

// countingReader wraps a mounted container file behind
// storage.ReadableFile. The server reads from many goroutines, so the
// counters are atomic. A recorder is attached only to the harness's own
// reader in the traced pass, never to the server's.
type countingReader struct {
	f   *os.File
	rec *recorder

	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	id := c.rec.begin("storage.read")
	n, err := c.f.ReadAt(p, off)
	c.rec.end(id)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.f.Close() }

// readCounts is a snapshot of a countingReader.
type readCounts struct {
	reads, bytes int64
}

func (c *countingReader) snapshot() readCounts {
	return readCounts{c.reads.Load(), c.bytes.Load()}
}
