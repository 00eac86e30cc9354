package simindex

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"repro/internal/invariant"
	"repro/internal/translate"
)

// canonicalKeyVersion versions the exact-tier key format. Bump whenever the
// key construction (or translate.CanonicalCode itself) changes, so stale
// persisted indexes rebucket instead of silently mixing incompatible codes.
const canonicalKeyVersion = "tc1"

// maxCanonicalComponentCells bounds the size of the largest connected
// component for which the exact tier computes a canonical code.
// translate.CanonicalCode enumerates every parameterised order of a
// component (Lemma 3.1), which grows superquadratically with component
// size — translate's BenchmarkCanonicalCode on a quiet 2-vCPU Xeon:
// 29 cells ≈ 4ms, 103 cells ≈ 54ms, 234 cells ≈ 300ms. Beyond the budget
// the exact tier abstains (CanonicalKey returns ok=false) and the instance
// participates in the approximate tier only: abstention keeps lookups
// sound, whereas a truncated code would falsely merge classes.
const maxCanonicalComponentCells = 160

// CanonicalKey returns the stable, versioned exact-tier key of an
// invariant, or ok=false when the invariant exceeds the canonical-code
// budget. Two invariants get the same key exactly when they are isomorphic
// in the sense of invariant.Isomorphic: the key combines
//
//   - the sorted schema region names (invariant.Isomorphic distinguishes
//     relabeled regions through per-name relations, while the bare
//     canonical code encodes signs in sorted-name order without the names
//     themselves — so the names must be part of the key), and
//   - translate.CanonicalCode, the Theorem 3.4 canonical encoding that
//     characterizes invariant isomorphism for a fixed schema.
func CanonicalKey(inv *invariant.Invariant) (string, bool) {
	cs := inv.Components()
	for _, c := range cs.List {
		if c.Size() > maxCanonicalComponentCells {
			return "", false
		}
	}
	names := sortedCopy(inv.Schema.Names())
	return canonicalKeyVersion + "|" + strings.Join(names, ",") + "|" + translate.CanonicalCode(inv), true
}

// ClassID returns the compact equivalence-class identifier used by the
// index: the hex SHA-256 of the canonical key, or "" when the exact tier
// abstains.
func ClassID(inv *invariant.Invariant) string {
	key, ok := CanonicalKey(inv)
	if !ok {
		return ""
	}
	return hashHex(key)
}

// FingerprintID returns the hex SHA-256 of invariant.Fingerprint — a cheap
// necessary condition for isomorphism, exposed in list entries so
// near-equivalence is visible even when the exact tier abstains.
func FingerprintID(inv *invariant.Invariant) string {
	return hashHex(inv.Fingerprint())
}

func hashHex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
