package compress

// LZ4 block format (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md):
//
//	sequence := token [litlen-ext*] literals offset(2B LE) [matchlen-ext*]
//
// The token's high nibble is the literal length (15 => extension bytes
// follow), the low nibble is match length - 4 (15 => extension bytes
// follow). The block ends with a literals-only sequence. Matches must not
// start within the last 12 bytes and the last 5 bytes are always literals
// (mmlimit rules), which this encoder honors so any conforming decoder can
// decode its output.

import (
	"encoding/binary"
	"math/bits"
)

const (
	lz4MinMatch      = 4
	lz4HashLog       = 13
	lz4LastLiterals  = 5
	lz4MFLimit       = 12 // match must end >= 12 bytes before block end
	lz4MaxOffset     = 65535
	lz4TokenMaxLit   = 15
	lz4TokenMaxMatch = 15
)

// LZ4 is the fast greedy LZ4 block codec.
type LZ4 struct{}

// NewLZ4 returns the lz4 codec.
func NewLZ4() *LZ4 { return &LZ4{} }

// Name implements Codec.
func (*LZ4) Name() string { return "lz4" }

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// Compress implements Codec using a single-probe hash table (greedy parse),
// matching the effort profile of the reference fast compressor.
func (*LZ4) Compress(dst, src []byte) []byte {
	return lz4CompressGeneric(dst, src, 0)
}

// Decompress implements Codec.
func (*LZ4) Decompress(dst, src []byte) ([]byte, error) {
	return lz4Decompress(dst, src)
}

// lz4CompressGeneric implements both lz4 (depth 0: single hash probe) and
// lz4hc (depth > 0: chained search of up to depth candidates).
func lz4CompressGeneric(dst, src []byte, depth int) []byte {
	n := len(src)
	if n == 0 {
		// Empty block: single token with zero literals.
		return append(dst, 0)
	}
	if n < lz4MFLimit+1 {
		return lz4EmitLastLiterals(dst, src)
	}

	var table [1 << lz4HashLog]int32 // position+1 of last occurrence
	var chain []int32
	if depth > 0 {
		chain = make([]int32, n) // previous position with same hash, +1
	}

	anchor := 0
	pos := 0
	limit := n - lz4MFLimit

	for pos <= limit {
		h := lz4Hash(load32(src, pos))
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if depth > 0 {
			chain[pos] = int32(cand + 1)
		}

		bestLen := 0
		bestOff := 0
		tries := depth
		if tries == 0 {
			tries = 1
		}
		for c := cand; c >= 0 && tries > 0; tries-- {
			off := pos - c
			if off > lz4MaxOffset {
				break
			}
			if load32(src, c) == load32(src, pos) {
				l := lz4MatchLen(src, c, pos, n-lz4LastLiterals)
				if l > bestLen {
					bestLen = l
					bestOff = off
				}
			}
			if depth == 0 {
				break
			}
			c = int(chain[c]) - 1
		}

		if bestLen < lz4MinMatch {
			pos++
			continue
		}

		// Emit sequence: literals [anchor,pos) then match.
		dst = lz4EmitSequence(dst, src[anchor:pos], bestOff, bestLen)
		// Insert skipped positions into the table so future matches can
		// reference inside this match (cheap for depth>0 quality).
		end := pos + bestLen
		if depth > 0 {
			for p := pos + 1; p < end && p <= limit; p++ {
				hh := lz4Hash(load32(src, p))
				chain[p] = table[hh]
				table[hh] = int32(p + 1)
			}
		}
		pos = end
		anchor = pos
	}

	return lz4EmitLastLiterals(dst, src[anchor:])
}

// lz4MatchLen returns how many bytes match between src[a:] and src[b:],
// a < b, stopping before src[max]: eight bytes per step while they fit,
// the first differing byte found from the XOR's trailing zeros.
func lz4MatchLen(src []byte, a, b, max int) int {
	l := 0
	for b+l+8 <= max {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for b+l < max && src[a+l] == src[b+l] {
		l++
	}
	return l
}

func lz4EmitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - lz4MinMatch

	tok := byte(0)
	if litLen >= lz4TokenMaxLit {
		tok = lz4TokenMaxLit << 4
	} else {
		tok = byte(litLen) << 4
	}
	if ml >= lz4TokenMaxMatch {
		tok |= lz4TokenMaxMatch
	} else {
		tok |= byte(ml)
	}
	dst = append(dst, tok)
	if litLen >= lz4TokenMaxLit {
		dst = lz4EmitLen(dst, litLen-lz4TokenMaxLit)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= lz4TokenMaxMatch {
		dst = lz4EmitLen(dst, ml-lz4TokenMaxMatch)
	}
	return dst
}

func lz4EmitLen(dst []byte, rem int) []byte {
	for rem >= 255 {
		dst = append(dst, 255)
		rem -= 255
	}
	return append(dst, byte(rem))
}

func lz4EmitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= lz4TokenMaxLit {
		dst = append(dst, lz4TokenMaxLit<<4)
		dst = lz4EmitLen(dst, litLen-lz4TokenMaxLit)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func lz4Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	i := 0
	n := len(src)
	for i < n {
		tok := src[i]
		i++
		// Literals.
		litLen := int(tok >> 4)
		if litLen == lz4TokenMaxLit {
			for {
				if i >= n {
					return dst, ErrCorrupt
				}
				b := src[i]
				i++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if i+litLen > n {
			return dst, ErrCorrupt
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == n {
			// Last sequence: literals only.
			return dst, nil
		}
		// Match.
		if i+2 > n {
			return dst, ErrCorrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, ErrCorrupt
		}
		matchLen := int(tok & 0xf)
		if matchLen == lz4TokenMaxMatch {
			for {
				if i >= n {
					return dst, ErrCorrupt
				}
				b := src[i]
				i++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		matchLen += lz4MinMatch
		// Overlapping copy, byte by byte (offset may be < matchLen).
		m := len(dst) - offset
		for j := 0; j < matchLen; j++ {
			dst = append(dst, dst[m+j])
		}
	}
	return dst, ErrCorrupt // must end with a literals-only sequence
}

// LZ4HC is the LZ4 block codec with a deeper chained-hash match search,
// trading compression speed for ratio — the "high compression" variant.
type LZ4HC struct{}

// NewLZ4HC returns the lz4hc codec.
func NewLZ4HC() *LZ4HC { return &LZ4HC{} }

// Name implements Codec.
func (*LZ4HC) Name() string { return "lz4hc" }

// Compress implements Codec with a 64-candidate chained search.
func (*LZ4HC) Compress(dst, src []byte) []byte {
	return lz4CompressGeneric(dst, src, 64)
}

// Decompress implements Codec; the block format is identical to lz4.
func (*LZ4HC) Decompress(dst, src []byte) ([]byte, error) {
	return lz4Decompress(dst, src)
}
