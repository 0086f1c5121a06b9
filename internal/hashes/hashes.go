// Package hashes provides the digest functions the MACH content cache is
// built on. The paper (§4.4, §6.3, Fig 12d) uses CRC32 as the primary 32-bit
// digest, compares it against MD5 and SHA1, and extends it with a CRC16 to a
// 48-bit digest for collision elimination (CO-MACH).
//
// All digests are reduced to 32 bits (or 48 for the deep digest) because the
// MACH tag store budgets 4 bytes per entry; the package exists to make that
// reduction and the choice of function explicit and swappable. It also holds
// SplitMix64, the one mix behind every seeded hash and generator stream
// outside the digests.
package hashes

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"hash/crc32"
)

// Func identifies a digest function selectable in experiments.
type Func int

const (
	// CRC32 is the paper's default digest (IEEE polynomial).
	CRC32 Func = iota
	// MD5 truncated to its first 32 bits.
	MD5
	// SHA1 truncated to its first 32 bits.
	SHA1
	// FNV1a32 is an extra cheap baseline not in the paper, useful to show a
	// weaker mixer still behaves acceptably on pixel data.
	FNV1a32
	// Murmur3 is MurmurHash3-32 (from scratch), a modern non-cryptographic
	// mixer for the same comparison.
	Murmur3
)

var funcNames = map[Func]string{
	CRC32:   "crc32",
	MD5:     "md5-32",
	SHA1:    "sha1-32",
	FNV1a32: "fnv1a-32",
	Murmur3: "murmur3-32",
}

func (f Func) String() string {
	if s, ok := funcNames[f]; ok {
		return s
	}
	return "unknown"
}

// AllFuncs lists every selectable digest function (Fig 12d sweep).
func AllFuncs() []Func { return []Func{CRC32, MD5, SHA1, FNV1a32, Murmur3} }

// Digest32 computes the 32-bit digest of data under f.
func Digest32(f Func, data []byte) uint32 {
	switch f {
	case CRC32:
		return crc32.ChecksumIEEE(data)
	case MD5:
		sum := md5.Sum(data)
		return binary.BigEndian.Uint32(sum[:4])
	case SHA1:
		sum := sha1.Sum(data)
		return binary.BigEndian.Uint32(sum[:4])
	case FNV1a32:
		const (
			offset = 2166136261
			prime  = 16777619
		)
		h := uint32(offset)
		for _, b := range data {
			h ^= uint32(b)
			h *= prime
		}
		return h
	case Murmur3:
		return Murmur3_32(data, 0x9747b28c)
	default:
		panic("hashes: unknown digest function")
	}
}

// Deep48 computes the paper's 48-bit deep digest: CRC32 concatenated with
// CRC16-CCITT in the low bits of a uint64 (§6.3, CO-MACH). The CRC16 half is
// kept on-chip only; it is never written to memory.
func Deep48(data []byte) uint64 {
	return uint64(crc32.ChecksumIEEE(data))<<16 | uint64(CRC16CCITT(data))
}
