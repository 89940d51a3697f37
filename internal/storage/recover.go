package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"stwave/internal/core"
)

// Recovery: a v3 container's data region is a journal of self-delimiting
// record frames, so the index can always be rebuilt by scanning frames
// from offset zero — the footer is an optimization, not the source of
// truth. ScanContainer walks the journal; RecoverContainerOpts repairs a
// truncated or footer-less file in place by truncating the torn tail and
// writing a fresh index over exactly the frames that are fully on disk.
//
// The journal and the footer check each other. A scan that stops early
// on a corrupt frame header (a single flipped bit, a failure mode the
// fault matrix models explicitly) does not get to declare everything
// after it lost: if the file still ends in a footer whose entries agree
// with every frame the scan verified and whose payloads check out, the
// scan resyncs from the footer and repair rewrites the damaged headers
// in place instead of truncating readable windows away.

// FrameState classifies one scanned record frame.
type FrameState int

const (
	// FrameOK: frame fully on disk, payload checksum verified.
	FrameOK FrameState = iota
	// FrameCorrupt: frame fully on disk but the payload fails its
	// checksum — kept through repair so readers see the loss explicitly.
	FrameCorrupt
	// FrameTorn: frame header valid but the payload runs past the end of
	// the file; the record was being written when the crash hit.
	FrameTorn
	// FrameBadHeader: the frame's record header is corrupt but the
	// footer index located the payload and it verifies against the
	// footer's CRC — the window is fully readable through the index, and
	// repair rewrites the header in place.
	FrameBadHeader
)

// String names the state for reports.
func (s FrameState) String() string {
	switch s {
	case FrameOK:
		return "ok"
	case FrameCorrupt:
		return "corrupt"
	case FrameTorn:
		return "torn"
	case FrameBadHeader:
		return "bad-header"
	}
	return fmt.Sprintf("FrameState(%d)", int(s))
}

// FrameInfo describes one record frame found by a scan.
type FrameInfo struct {
	Index  int        `json:"index"`
	Offset int64      `json:"offset"` // payload offset (frame header precedes it)
	Length int64      `json:"length"` // payload bytes
	CRC    uint32     `json:"crc"`
	State  FrameState `json:"-"`
	StateS string     `json:"state"`
	// Codec names the coefficient backend of the window payload ("sparse",
	// "entropy", ...), parsed from the window header. Empty when the
	// payload is too damaged for even the header to parse.
	Codec string `json:"codec,omitempty"`
	// Precision names the window's sample precision ("f64" or "f32"),
	// parsed from the same header bit the decoder dispatches on. Empty for
	// gap markers and unparseable payloads.
	Precision string `json:"precision,omitempty"`
	// Progressive marks a v4 level-major payload; Levels is its spatial
	// decomposition depth (the number of addressable refinement levels).
	// An fsck report distinguishes them because a corrupt progressive
	// window may still serve its intact coarse prefix.
	Progressive bool `json:"progressive,omitempty"`
	Levels      int  `json:"levels,omitempty"`
}

// ScanReport is the result of walking a container's journal.
type ScanReport struct {
	Size    int64       `json:"size_bytes"`
	Legacy  bool        `json:"legacy"` // v2 container: no frames, index verified instead
	Frames  []FrameInfo `json:"frames"`
	Good    int         `json:"good_windows"`
	Corrupt []int       `json:"corrupt_windows"` // indices of FrameCorrupt frames
	Torn    bool        `json:"torn_record"`     // a record was cut off mid-write
	// BadHeaders lists frames whose record header is corrupt but whose
	// payload the footer index still reaches; repair rewrites these
	// headers in place without touching any payload.
	BadHeaders []int `json:"bad_headers,omitempty"`
	// TailOffset is the end of the last fully-on-disk frame: everything
	// after it is the footer index, a torn record, or garbage.
	TailOffset int64 `json:"tail_offset"`
	// FooterOK reports whether [TailOffset, Size) is a valid index +
	// footer consistent with the scanned frames.
	FooterOK bool `json:"footer_ok"`
	// FooterPresent and FooterWindows describe whatever footer magic the
	// file ends with, even when it disagrees with the journal.
	FooterPresent bool `json:"footer_present"`
	FooterWindows int  `json:"footer_windows"`
}

// NeedsRepair reports whether RecoverContainerOpts would change the file.
func (rep *ScanReport) NeedsRepair() bool {
	return !rep.Legacy && (!rep.FooterOK || len(rep.BadHeaders) > 0)
}

// ScanContainer walks the record journal of a container image, verifying
// every frame's checksums, and cross-checks the footer index if one is
// present. It never modifies the file. Transient read errors are retried
// with the default policy (the scan sees the same flaky production I/O
// as the read and write paths); persistent read errors propagate instead
// of misclassifying an unreadable frame as corrupt. Legacy (v2)
// containers have no journal; for those the scan falls back to verifying
// each window against the footer index, and recovery is not possible.
func ScanContainer(f io.ReaderAt, size int64) (*ScanReport, error) {
	retry := DefaultRetryPolicy()
	rep := &ScanReport{Size: size}
	pos := int64(0)
	for pos+core.RecordHeaderSize <= size {
		var hdr [core.RecordHeaderSize]byte
		if err := readAtRetry(f, retry, hdr[:], pos); err != nil {
			return nil, fmt.Errorf("storage: scan read at %d: %w", pos, err)
		}
		h, err := core.ParseRecordHeader(hdr[:])
		if err != nil {
			break // end of journal: footer, corrupt header, or garbage
		}
		fi := FrameInfo{
			Index:  len(rep.Frames),
			Offset: pos + core.RecordHeaderSize,
			Length: h.Length,
			CRC:    h.PayloadCRC,
		}
		if h.Length > size-fi.Offset {
			fi.State = FrameTorn
			rep.Torn = true
			rep.Frames = append(rep.Frames, withStateS(fi))
			break // nothing durable past a torn record
		}
		sum, err := crcOfSection(f, retry, fi.Offset, fi.Length)
		if err != nil {
			return nil, fmt.Errorf("storage: scan read window %d: %w", fi.Index, err)
		}
		if sum == h.PayloadCRC {
			fi.State = FrameOK
			rep.Good++
		} else {
			fi.State = FrameCorrupt
			rep.Corrupt = append(rep.Corrupt, fi.Index)
		}
		rep.Frames = append(rep.Frames, withStateS(classifyCodec(f, fi)))
		pos = fi.Offset + fi.Length
	}
	rep.TailOffset = pos

	if len(durableFrames(rep)) == 0 && pos == 0 {
		// No frames at all: either a legacy container or not a container.
		legacyRep, ok, err := scanLegacy(f, size, retry)
		if err != nil {
			return nil, err
		}
		if ok {
			return legacyRep, nil
		}
	}
	rep.FooterOK = footerMatches(f, size, rep)
	if !rep.FooterOK && !rep.Torn {
		if err := resyncFromFooter(f, size, retry, rep); err != nil {
			return nil, err
		}
	}
	if n, ok := footerWindows(f, size); ok {
		rep.FooterPresent = true
		rep.FooterWindows = int(min(n, 1<<31))
	}
	return rep, nil
}

func withStateS(fi FrameInfo) FrameInfo {
	fi.StateS = fi.State.String()
	return fi
}

// classifyCodec parses the window header at the frame's payload to name
// its coefficient backend. Damage is expected here — a corrupt payload's
// header may be garbage — so parse failures just leave Codec empty.
// Journaled gap markers are labeled "gap" so an fsck report reads as a
// timeline, not as a run of mystery frames.
func classifyCodec(f io.ReaderAt, fi FrameInfo) FrameInfo {
	wi, err := core.ReadWindowInfo(io.NewSectionReader(f, fi.Offset, fi.Length))
	if err != nil {
		return fi
	}
	if wi.Gap != nil {
		fi.Codec = "gap"
	} else {
		fi.Codec = wi.Codec.String()
		fi.Precision = wi.Precision.String()
		fi.Progressive = wi.Progressive
		if wi.Progressive {
			fi.Levels = wi.SpatialLevels
		}
	}
	return fi
}

// durableFrames returns the frames fully on disk (ok or corrupt).
func durableFrames(rep *ScanReport) []FrameInfo {
	out := rep.Frames
	if n := len(out); n > 0 && out[n-1].State == FrameTorn {
		out = out[:n-1]
	}
	return out
}

// readAtRetry fills buf from off, retrying transient errors.
func readAtRetry(f io.ReaderAt, retry RetryPolicy, buf []byte, off int64) error {
	return retry.Do(func() error {
		_, err := f.ReadAt(buf, off)
		return err
	})
}

// crcOfSection checksums length bytes at offset without holding them all
// in memory. Transient read errors retry the whole section (the checksum
// must restart); a persistent error propagates so an unreadable window
// is reported as a read failure rather than misclassified as corrupt.
func crcOfSection(f io.ReaderAt, retry RetryPolicy, offset, length int64) (uint32, error) {
	var sum uint32
	err := retry.Do(func() error {
		h := crc32.NewIEEE()
		if _, err := io.Copy(h, io.NewSectionReader(f, offset, length)); err != nil {
			return err
		}
		sum = h.Sum32()
		return nil
	})
	return sum, err
}

// footerMatches reports whether the bytes after the last durable frame
// are exactly a valid v3 index + footer describing the scanned frames.
func footerMatches(f io.ReaderAt, size int64, rep *ScanReport) bool {
	if rep.Torn {
		return false
	}
	frames := durableFrames(rep)
	want := encodeIndexFromFrames(frames)
	if size-rep.TailOffset != int64(len(want)) {
		return false
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, rep.TailOffset); err != nil {
		return false
	}
	return bytes.Equal(got, want)
}

// readFooterIndex parses the footer index at the end of the file,
// returning its entries. ok is false when the file does not end in a
// structurally valid v3 index: footer magic, a plausible window count,
// and entries that form a contiguous sequence of framed records exactly
// filling the data region.
func readFooterIndex(f io.ReaderAt, size int64, retry RetryPolicy) (offsets, lengths []int64, crcs []uint32, ok bool) {
	if size < footerSize {
		return nil, nil, nil, false
	}
	n, present := footerWindows(f, size)
	if !present || n > uint64(size)/indexEntrySize {
		return nil, nil, nil, false
	}
	num := int(n)
	indexSize := int64(indexEntrySize*num + footerSize)
	dataEnd := size - indexSize
	if dataEnd < 0 {
		return nil, nil, nil, false
	}
	idx := make([]byte, indexEntrySize*num)
	if err := readAtRetry(f, retry, idx, dataEnd); err != nil {
		return nil, nil, nil, false
	}
	offsets = make([]int64, num)
	lengths = make([]int64, num)
	crcs = make([]uint32, num)
	prevEnd := int64(0)
	for i := 0; i < num; i++ {
		offU := binary.LittleEndian.Uint64(idx[indexEntrySize*i:])
		lnU := binary.LittleEndian.Uint64(idx[indexEntrySize*i+8:])
		// Validate in the unsigned domain before narrowing: any entry
		// past dataEnd — including values that would wrap int64 — marks
		// the index corrupt.
		if offU > uint64(dataEnd) || lnU > uint64(dataEnd)-offU {
			return nil, nil, nil, false
		}
		off, ln := int64(offU), int64(lnU)
		if off != prevEnd+core.RecordHeaderSize {
			return nil, nil, nil, false
		}
		offsets[i] = off
		lengths[i] = ln
		crcs[i] = binary.LittleEndian.Uint32(idx[indexEntrySize*i+16:])
		prevEnd = off + ln
	}
	if prevEnd != dataEnd {
		return nil, nil, nil, false
	}
	return offsets, lengths, crcs, true
}

// resyncFromFooter resumes a journal scan that stopped at a corrupt
// frame header by cross-checking the footer index. The footer is adopted
// only when it is beyond reasonable doubt: structurally valid, covering
// more frames than the scan reached, and agreeing bit-for-bit with every
// frame the scan already verified. Each frame past the stop point is
// then classified by its own evidence — header and payload both good
// (FrameOK), payload good but header damaged (FrameBadHeader, repair
// rewrites it), or payload bad (FrameCorrupt, kept indexed). On success
// FooterOK is set and TailOffset advances to the start of the index, so
// repair never truncates windows a valid footer still reaches.
func resyncFromFooter(f io.ReaderAt, size int64, retry RetryPolicy, rep *ScanReport) error {
	frames := durableFrames(rep)
	offsets, lengths, crcs, ok := readFooterIndex(f, size, retry)
	if !ok || len(offsets) <= len(frames) {
		return nil
	}
	for i, fr := range frames {
		if offsets[i] != fr.Offset || lengths[i] != fr.Length || crcs[i] != fr.CRC {
			return nil
		}
	}
	rep.Frames = frames
	for k := len(frames); k < len(offsets); k++ {
		fi := FrameInfo{Index: k, Offset: offsets[k], Length: lengths[k], CRC: crcs[k]}
		sum, err := crcOfSection(f, retry, fi.Offset, fi.Length)
		if err != nil {
			return fmt.Errorf("storage: scan read window %d: %w", k, err)
		}
		var hdr [core.RecordHeaderSize]byte
		if err := readAtRetry(f, retry, hdr[:], fi.Offset-core.RecordHeaderSize); err != nil {
			return fmt.Errorf("storage: scan read at %d: %w", fi.Offset-core.RecordHeaderSize, err)
		}
		h, err := core.ParseRecordHeader(hdr[:])
		headerOK := err == nil && h.Length == fi.Length && h.PayloadCRC == fi.CRC
		if !headerOK {
			rep.BadHeaders = append(rep.BadHeaders, k)
		}
		switch {
		case sum != fi.CRC:
			fi.State = FrameCorrupt
			rep.Corrupt = append(rep.Corrupt, k)
		case headerOK:
			fi.State = FrameOK
			rep.Good++
		default:
			fi.State = FrameBadHeader
			rep.Good++
		}
		rep.Frames = append(rep.Frames, withStateS(classifyCodec(f, fi)))
	}
	rep.TailOffset = offsets[len(offsets)-1] + lengths[len(lengths)-1]
	rep.FooterOK = true
	return nil
}

// encodeIndexFromFrames builds the index + footer bytes for the given
// durable frames.
func encodeIndexFromFrames(frames []FrameInfo) []byte {
	offsets := make([]int64, len(frames))
	lengths := make([]int64, len(frames))
	crcs := make([]uint32, len(frames))
	for i, fr := range frames {
		offsets[i] = fr.Offset
		lengths[i] = fr.Length
		crcs[i] = fr.CRC
	}
	return encodeIndex(offsets, lengths, crcs)
}

// scanLegacy recognizes a v2 container (valid "STWX" footer, no frames)
// and verifies its windows against the index.
func scanLegacy(f io.ReaderAt, size int64, retry RetryPolicy) (*ScanReport, bool, error) {
	r, err := NewContainerReader(readerAtNopCloser{f}, size)
	if err != nil || r.framed {
		return nil, false, nil
	}
	rep := &ScanReport{Size: size, Legacy: true, FooterOK: true, FooterPresent: true, FooterWindows: r.NumWindows()}
	for i := 0; i < r.NumWindows(); i++ {
		fi := FrameInfo{Index: i, Offset: r.offsets[i], Length: r.lengths[i], CRC: r.crcs[i]}
		sum, err := crcOfSection(f, retry, fi.Offset, fi.Length)
		if err != nil {
			return nil, false, fmt.Errorf("storage: scan read window %d: %w", i, err)
		}
		if sum == fi.CRC {
			fi.State = FrameOK
			rep.Good++
		} else {
			fi.State = FrameCorrupt
			rep.Corrupt = append(rep.Corrupt, i)
		}
		rep.Frames = append(rep.Frames, withStateS(classifyCodec(f, fi)))
		rep.TailOffset = fi.Offset + fi.Length
	}
	return rep, true, nil
}

type readerAtNopCloser struct{ io.ReaderAt }

func (readerAtNopCloser) Close() error { return nil }

// RecoverOptions tunes RecoverContainerOpts.
type RecoverOptions struct {
	// Force permits repair to truncate tail bytes that a footer at the
	// end of the file still claims to index, when that footer could not
	// be validated against the journal. Without Force such repairs are
	// refused: the scan may have stopped early on localized damage, and
	// truncating would permanently destroy windows a reader (or a more
	// careful operator) might still reach through the footer.
	Force bool
}

// RecoverContainerOpts scans the container at path and, if its footer index
// is missing, torn, or inconsistent with the journal, repairs the file
// in place. When the damage is a corrupt frame header with the footer
// still valid, repair rewrites the header and nothing is lost. Otherwise
// the torn tail is backed up to path+".tail.bak", truncated away, and a
// fresh index + footer is written over exactly the frames that are fully
// on disk (corrupt frames are kept and indexed, so their loss stays
// visible to readers and fsck rather than silently renumbering later
// windows). The repair is idempotent — re-running it, even after a crash
// mid-repair, reaches the same result. The returned report describes the
// state found by the pre-repair scan.
//
// Truncation that would discard windows an unvalidatable footer claims
// to index is refused; see RecoverOptions.Force.
func RecoverContainerOpts(path string, opt RecoverOptions) (*ScanReport, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rep, err := ScanContainer(f, st.Size())
	if err != nil {
		return nil, err
	}
	if rep.Legacy {
		return rep, fmt.Errorf("storage: %s is a legacy (v2) container with no journal frames; nothing to recover", path)
	}
	if rep.FooterOK {
		if len(rep.BadHeaders) == 0 {
			return rep, nil
		}
		// The index still reaches every window; only journal headers are
		// damaged. Rewrite them in place — no truncation, nothing lost.
		for _, k := range rep.BadHeaders {
			fr := rep.Frames[k]
			hdr := core.EncodeRecordHeader(core.RecordHeader{Length: fr.Length, PayloadCRC: fr.CRC})
			if _, err := f.WriteAt(hdr[:], fr.Offset-core.RecordHeaderSize); err != nil {
				return rep, fmt.Errorf("storage: rewriting frame header %d: %w", k, err)
			}
		}
		if err := f.Sync(); err != nil {
			return rep, fmt.Errorf("storage: syncing repaired container: %w", err)
		}
		return rep, nil
	}
	durable := durableFrames(rep)
	if len(durable) == 0 {
		return rep, fmt.Errorf("storage: %s contains no intact record frames; not a recoverable container", path)
	}
	if rep.FooterPresent && rep.FooterWindows > len(durable) && !opt.Force {
		return rep, fmt.Errorf("storage: %s: journal scan found %d durable frames but the footer claims %d windows and could not be validated; refusing to truncate data the footer may still reach (re-run with force after investigating)", path, len(durable), rep.FooterWindows)
	}
	if rep.TailOffset < st.Size() {
		if err := backupTail(path, f, rep.TailOffset, st.Size()); err != nil {
			return rep, fmt.Errorf("storage: backing up tail before truncation: %w", err)
		}
	}
	if err := f.Truncate(rep.TailOffset); err != nil {
		return rep, fmt.Errorf("storage: truncating torn tail: %w", err)
	}
	idx := encodeIndexFromFrames(durable)
	if _, err := f.WriteAt(idx, rep.TailOffset); err != nil {
		return rep, fmt.Errorf("storage: rewriting index: %w", err)
	}
	if err := f.Sync(); err != nil {
		return rep, fmt.Errorf("storage: syncing repaired container: %w", err)
	}
	return rep, nil
}

// backupTail copies the about-to-be-discarded byte range [from, to) of
// the container to path+".tail.bak", so even a misjudged repair stays
// reversible by hand.
func backupTail(path string, f io.ReaderAt, from, to int64) error {
	bak, err := os.Create(path + ".tail.bak")
	if err != nil {
		return err
	}
	_, cpErr := io.Copy(bak, io.NewSectionReader(f, from, to-from))
	if err := bak.Sync(); cpErr == nil {
		cpErr = err
	}
	if err := bak.Close(); cpErr == nil {
		cpErr = err
	}
	return cpErr
}

// footerWindows reads the window count a footer claims, for reports; ok
// is false when no valid footer magic is present.
func footerWindows(f io.ReaderAt, size int64) (n uint64, ok bool) {
	if size < footerSize {
		return 0, false
	}
	var tail [footerSize]byte
	if _, err := f.ReadAt(tail[:], size-footerSize); err != nil {
		return 0, false
	}
	switch [4]byte(tail[8:12]) {
	case containerMagic, containerMagicV2:
		return binary.LittleEndian.Uint64(tail[0:8]), true
	}
	return 0, false
}
