package compress

// LZO-class codec: a byte-aligned LZSS with control bytes, in the spirit of
// LZO1X (fast, ratio close to lz4 but usually a bit better on text thanks to
// 3-byte minimum matches). This is an original format — the kernel's LZO
// bitstream is not reproduced bit-for-bit — but the algorithmic class
// (greedy byte-aligned LZSS, small window, 3-byte min match) is the same,
// so speed/ratio behaviour tracks the real thing. See DESIGN.md.
//
// Format:
//
//	block  := { group }
//	group  := ctrl(1B) item*8      -- ctrl bit i (LSB first) selects item i:
//	                                  0 = literal byte
//	                                  1 = match: 2 bytes (+ extensions)
//	match  := offHi(5b)|lenCode(3b) , offLo(8b)
//	          offset = (offHi<<8|offLo) + 1          (1..8192)
//	          lenCode 0..6 => length 3..9
//	          lenCode 7    => extension bytes follow: length = 10 + sum,
//	                          each extension byte adds its value; a value
//	                          of 255 means another extension byte follows
//
// The final group may be partial; decoding consumes input until exhausted.

const (
	lzoWindow   = 8192
	lzoMinMatch = 3
	lzoHashLog  = 12
)

// lzoEncoder writes control-byte groups straight into dst: a group's
// control byte is appended, zero, ahead of its first item and patched in
// place as matches join the group.
type lzoEncoder struct {
	dst    []byte
	ctrl   int // index in dst of the open group's control byte
	nitems int // items in the open group, 0..7 (0: no group is open)
}

// item opens a group if none is open and accounts for one more item in it.
func (e *lzoEncoder) item(match bool) {
	if e.nitems == 0 {
		e.ctrl = len(e.dst)
		e.dst = append(e.dst, 0)
	}
	if match {
		e.dst[e.ctrl] |= 1 << uint(e.nitems)
	}
	e.nitems = (e.nitems + 1) & 7
}

func (e *lzoEncoder) literal(b byte) {
	e.item(false)
	e.dst = append(e.dst, b)
}

func (e *lzoEncoder) match(offset, length int) {
	e.item(true)
	off := offset - 1
	if length <= 9 {
		e.dst = append(e.dst, byte((off>>8)<<3)|byte(length-lzoMinMatch), byte(off))
		return
	}
	e.dst = append(e.dst, byte((off>>8)<<3)|7, byte(off))
	rem := length - 10
	for rem >= 255 {
		e.dst = append(e.dst, 255)
		rem -= 255
	}
	e.dst = append(e.dst, byte(rem))
}

// LZO is the lzo-class codec.
type LZO struct {
	rle bool
}

// NewLZO returns the lzo codec.
func NewLZO() *LZO { return &LZO{} }

// Name implements Codec.
func (c *LZO) Name() string {
	if c.rle {
		return "lzo-rle"
	}
	return "lzo"
}

func lzoHash(v uint32) uint32 {
	// Hash the low 3 bytes (min match is 3).
	return ((v & 0xffffff) * 506832829) >> (32 - lzoHashLog)
}

// Compress implements Codec.
func (c *LZO) Compress(dst, src []byte) []byte {
	n := len(src)
	var table [1 << lzoHashLog]int32
	e := lzoEncoder{dst: dst}

	pos := 0
	for pos < n {
		// RLE fast path (lzo-rle): runs of a repeated byte become a literal
		// plus an offset-1 self-referential match, without a hash probe.
		if c.rle && pos+3 < n && src[pos] == src[pos+1] && src[pos] == src[pos+2] && src[pos] == src[pos+3] {
			b := src[pos]
			runLen := 4
			for pos+runLen < n && src[pos+runLen] == b {
				runLen++
			}
			e.literal(b)
			e.match(1, runLen-1)
			pos += runLen
			continue
		}

		if pos+4 <= n {
			h := lzoHash(load32(src, pos))
			cand := int(table[h]) - 1
			table[h] = int32(pos + 1)
			if cand >= 0 && pos-cand <= lzoWindow &&
				src[cand] == src[pos] && src[cand+1] == src[pos+1] && src[cand+2] == src[pos+2] {
				l := lz4MatchLen(src, cand, pos, n)
				if l >= lzoMinMatch {
					e.match(pos-cand, l)
					// Seed the table sparsely inside the match.
					end := pos + l
					for p := pos + 1; p < end && p+4 <= n; p += 7 {
						table[lzoHash(load32(src, p))] = int32(p + 1)
					}
					pos = end
					continue
				}
			}
		}
		e.literal(src[pos])
		pos++
	}
	return e.dst
}

// Decompress implements Codec.
func (c *LZO) Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	maxLen := base + lzMaxExpansion(len(src))
	i := 0
	n := len(src)
	for i < n {
		ctrl := src[i]
		i++
		for bit := 0; bit < 8 && i < n; bit++ {
			if ctrl&(1<<uint(bit)) == 0 {
				dst = append(dst, src[i])
				i++
				continue
			}
			if i+2 > n {
				return dst, ErrCorrupt
			}
			b0 := src[i]
			b1 := src[i+1]
			i += 2
			offset := (int(b0>>3)<<8 | int(b1)) + 1
			lenCode := int(b0 & 7)
			var length int
			if lenCode < 7 {
				length = lenCode + lzoMinMatch
			} else {
				length = 10
				for {
					if i >= n {
						return dst, ErrCorrupt
					}
					ext := src[i]
					i++
					length += int(ext)
					if ext != 255 {
						break
					}
				}
			}
			if offset > len(dst)-base || len(dst)+length > maxLen {
				return dst, ErrCorrupt
			}
			dst = appendMatch(dst, offset, length)
		}
	}
	return dst, nil
}

// LZORLE is lzo with the kernel's RLE fast path (zram switched its default
// compressor to lzo-rle for exactly this case: zero-filled and run-heavy
// pages decode faster and pack better).
type LZORLE struct{ LZO }

// NewLZORLE returns the lzo-rle codec.
func NewLZORLE() *LZORLE { return &LZORLE{LZO{rle: true}} }
