package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"

	"repro/internal/core"
)

// DefaultAnswerCapacity bounds the answer cache when no option is given.
// Entries are a hash key plus a Boolean, so the default is deliberately much
// larger than the invariant cache's.
const DefaultAnswerCapacity = 65536

// answerKey is the content address of one evaluation: the hex SHA-256 of the
// length-framed (instance key, canonical query text, resolved strategy)
// triple.  Keying on the canonical text makes the cache syntax-blind — a
// legacy alias, its spelled-out formula and a differently-whitespaced copy
// all land on one entry — and keying on the resolved strategy keeps per-
// strategy error behaviour and latencies honest (answers are only reused
// within the strategy that produced them).
func answerKey(instKey, canonical string, s core.Strategy) string {
	h := sha256.New()
	var frame [8]byte
	binary.BigEndian.PutUint64(frame[:], uint64(len(instKey)))
	h.Write(frame[:])
	io.WriteString(h, instKey)
	binary.BigEndian.PutUint64(frame[:], uint64(len(canonical)))
	h.Write(frame[:])
	io.WriteString(h, canonical)
	binary.BigEndian.PutUint64(frame[:], uint64(s))
	h.Write(frame[:])
	return hex.EncodeToString(h.Sum(nil))
}
