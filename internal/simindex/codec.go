package simindex

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Persistent index format (SIMINDEX.bin beside the store's MANIFEST.json):
//
//	magic "TSIM" | u32 version | u32 feature-dim | u64 entry count
//	per entry (sorted by ID): ID, Class, Fingerprint (u32-len-prefixed
//	strings), feature-dim float64 coordinates (IEEE-754 bits)
//	u32 CRC-32C (Castagnoli) of everything before the trailer
//
// All integers are little-endian. A version or feature-dim mismatch (or a
// bad checksum) makes LoadFile fail; callers treat that as "no index" and
// rebuild from the store — the file is a cache of derived data, never the
// source of truth.
const (
	codecMagic   = "TSIM"
	codecVersion = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IndexFileName is the file name used beside a store's manifest.
const IndexFileName = "SIMINDEX.bin"

// IndexFilePath returns the index file path for a store directory.
func IndexFilePath(storeDir string) string {
	return filepath.Join(storeDir, IndexFileName)
}

// Encode serializes the entries (sorted by ID — Index.Entries already is).
func Encode(entries []Entry) []byte {
	size := 4 + 4 + 4 + 8
	for i := range entries {
		size += 12 + len(entries[i].ID) + len(entries[i].Class) + len(entries[i].Fingerprint) + FeatureDim*8
	}
	buf := make([]byte, 0, size+4)
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, FeatureDim)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	for i := range entries {
		buf = appendString(buf, entries[i].ID)
		buf = appendString(buf, entries[i].Class)
		buf = appendString(buf, entries[i].Fingerprint)
		for _, c := range entries[i].Vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// Decode parses a serialized index.
func Decode(data []byte) ([]Entry, error) {
	if len(data) < 4+4+4+8+4 {
		return nil, fmt.Errorf("simindex: truncated index file (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("simindex: index checksum mismatch (got %08x want %08x)", got, want)
	}
	if string(body[:4]) != codecMagic {
		return nil, fmt.Errorf("simindex: bad magic %q", body[:4])
	}
	body = body[4:]
	if v := binary.LittleEndian.Uint32(body); v != codecVersion {
		return nil, fmt.Errorf("simindex: unsupported index version %d (want %d)", v, codecVersion)
	}
	if d := binary.LittleEndian.Uint32(body[4:]); d != FeatureDim {
		return nil, fmt.Errorf("simindex: feature dimension %d does not match build (%d)", d, FeatureDim)
	}
	count := binary.LittleEndian.Uint64(body[8:])
	body = body[16:]
	if count > uint64(len(body)) { // each entry is ≥ 1 byte; cheap bomb guard
		return nil, fmt.Errorf("simindex: implausible entry count %d", count)
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e Entry
		var err error
		if e.ID, body, err = readString(body); err != nil {
			return nil, fmt.Errorf("simindex: entry %d id: %w", i, err)
		}
		if e.Class, body, err = readString(body); err != nil {
			return nil, fmt.Errorf("simindex: entry %d class: %w", i, err)
		}
		if e.Fingerprint, body, err = readString(body); err != nil {
			return nil, fmt.Errorf("simindex: entry %d fingerprint: %w", i, err)
		}
		if len(body) < FeatureDim*8 {
			return nil, fmt.Errorf("simindex: entry %d: truncated feature vector", i)
		}
		for j := 0; j < FeatureDim; j++ {
			e.Vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[j*8:]))
		}
		body = body[FeatureDim*8:]
		entries = append(entries, e)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("simindex: %d trailing bytes after %d entries", len(body), count)
	}
	return entries, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(body []byte) (string, []byte, error) {
	if len(body) < 4 {
		return "", nil, fmt.Errorf("truncated length prefix")
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(n) > uint64(len(body)) {
		return "", nil, fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(body))
	}
	return string(body[:n]), body[n:], nil
}

// SaveFile atomically writes the index's entries to path (tmp + rename).
func (x *Index) SaveFile(path string) error {
	data := Encode(x.Entries())
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("simindex: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("simindex: rename %s: %w", tmp, err)
	}
	return nil
}

// LoadFile reads a persisted index into x (merging by Add, so reconciling
// against the store afterwards is idempotent) and returns the number of
// entries loaded. A missing file is not an error: it returns (0, nil).
func (x *Index) LoadFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("simindex: read %s: %w", path, err)
	}
	entries, err := Decode(data)
	if err != nil {
		return 0, err
	}
	for i := range entries {
		x.Add(&entries[i])
	}
	return len(entries), nil
}
