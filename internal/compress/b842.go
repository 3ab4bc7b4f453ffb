package compress

// 842-style codec. IBM's 842 ("hardware-friendly compression") processes
// input in 8-byte phrases; each phrase is encoded either as raw data or as
// references into small hash-indexed dictionaries of recently seen 8-, 4-,
// and 2-byte fragments. This implementation keeps the phrase-oriented
// structure and the three-granularity dictionary scheme with a byte-aligned
// encoding (the hardware bitstream is not reproduced):
//
//	phrase := op(1B) payload
//	op 0: raw 8 bytes
//	op 1: one 8-byte dictionary ref          (2B index)
//	op 2: two 4-byte dictionary refs         (2B+2B index)
//	op 3: 4-byte ref + raw 4 bytes           (2B index + 4B)
//	op 4: raw 4 bytes + 4-byte ref           (4B + 2B index)
//	op 5: four 2-byte dictionary refs        (4×2B index)
//	op 6: raw tail (< 8 bytes, final phrase) (1B length + bytes)
//
// Dictionaries are positional: an index refers to the i-th 8/4/2-byte
// aligned fragment of the *output produced so far*, so the decoder can
// reconstruct them without extra state. Indexes are 16-bit; fragments
// beyond 64 Ki entries stop being referencable (fine for 4 KB pages).
// The kernel's 842 driver additionally has OP_ZEROS (an all-zero phrase)
// and OP_REPEAT (repeat the previous phrase N times); both are reproduced
// here since zero-filled pages are the common case zswap sees.
const (
	b842Raw8 = iota
	b842Ref8
	b842Ref44
	b842Ref4Raw4
	b842Raw4Ref4
	b842Ref2222
	b842RawTail
	b842Zeros  // one all-zero 8-byte phrase
	b842Repeat // repeat previous 8-byte phrase 1..255 times (1B count)
)

// B842 is the 842-style codec.
type B842 struct{}

// New842 returns the 842-style codec.
func New842() *B842 { return &B842{} }

// Name implements Codec.
func (*B842) Name() string { return "842" }

type b842Dict struct {
	h8 map[uint64]int // 8-byte fragment -> aligned index
	h4 map[uint32]int
	h2 map[uint16]int
}

func newB842Dict() *b842Dict {
	return &b842Dict{
		h8: make(map[uint64]int),
		h4: make(map[uint32]int),
		h2: make(map[uint16]int),
	}
}

// add indexes the fragments of the 8-byte phrase at aligned output offset
// off (off is a multiple of 8).
func (d *b842Dict) add(p []byte, off int) {
	if off/8 < 1<<16 {
		d.h8[le64(p)] = off / 8
	}
	for i := 0; i < 8; i += 4 {
		if (off+i)/4 < 1<<16 {
			d.h4[le32(p[i:])] = (off + i) / 4
		}
	}
	for i := 0; i < 8; i += 2 {
		if (off+i)/2 < 1<<16 {
			d.h2[le16(p[i:])] = (off + i) / 2
		}
	}
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

// Compress implements Codec with throwaway dictionaries; owners that
// compress many pages reuse a set through Scratch.
func (*B842) Compress(dst, src []byte) []byte {
	return newB842Dict().compress(dst, src)
}

func (*B842) compressScratch(s *Scratch, dst, src []byte) []byte {
	if s.b842 == nil {
		s.b842 = newB842Dict()
	}
	return s.b842.compress(dst, src)
}

// compress encodes one block. The dictionaries start empty for every
// block — a reused set keeps its buckets, not its entries.
func (d *b842Dict) compress(dst, src []byte) []byte {
	clear(d.h8)
	clear(d.h4)
	clear(d.h2)
	pos := 0
	n := len(src)
	for pos+8 <= n {
		p := src[pos : pos+8]
		// Repeat fast path: count how many following phrases equal this one.
		if pos >= 8 && le64(p) == le64(src[pos-8:]) {
			reps := 0
			for reps < 255 && pos+8 <= n && le64(src[pos:pos+8]) == le64(src[pos-8:pos]) {
				reps++
				pos += 8
			}
			dst = append(dst, b842Repeat, byte(reps))
			continue
		}
		if le64(p) == 0 {
			dst = append(dst, b842Zeros)
			d.add(p, pos)
			pos += 8
			continue
		}
		if idx, ok := d.h8[le64(p)]; ok {
			dst = append(dst, b842Ref8, byte(idx), byte(idx>>8))
		} else {
			lo, okLo := d.h4[le32(p)]
			hi, okHi := d.h4[le32(p[4:])]
			switch {
			case okLo && okHi:
				dst = append(dst, b842Ref44, byte(lo), byte(lo>>8), byte(hi), byte(hi>>8))
			case okLo:
				dst = append(dst, b842Ref4Raw4, byte(lo), byte(lo>>8))
				dst = append(dst, p[4:]...)
			case okHi:
				dst = append(dst, b842Raw4Ref4)
				dst = append(dst, p[:4]...)
				dst = append(dst, byte(hi), byte(hi>>8))
			default:
				// Try four 2-byte refs.
				var idx2 [4]int
				all2 := true
				for i := 0; i < 4; i++ {
					v, ok := d.h2[le16(p[2*i:])]
					if !ok {
						all2 = false
						break
					}
					idx2[i] = v
				}
				if all2 {
					dst = append(dst, b842Ref2222)
					for i := 0; i < 4; i++ {
						dst = append(dst, byte(idx2[i]), byte(idx2[i]>>8))
					}
				} else {
					dst = append(dst, b842Raw8)
					dst = append(dst, p...)
				}
			}
		}
		d.add(p, pos)
		pos += 8
	}
	if pos < n {
		dst = append(dst, b842RawTail, byte(n-pos))
		dst = append(dst, src[pos:]...)
	}
	return dst
}

// Decompress implements Codec.
func (*B842) Decompress(dst, src []byte) ([]byte, error) {
	base := len(dst)
	i := 0
	n := len(src)
	need := func(k int) bool { return i+k <= n }
	copyFrag := func(byteOff, size int) bool {
		if byteOff < 0 || byteOff+size > len(dst)-base {
			return false
		}
		dst = append(dst, dst[base+byteOff:base+byteOff+size]...)
		return true
	}
	for i < n {
		op := src[i]
		i++
		switch op {
		case b842Raw8:
			if !need(8) {
				return dst, ErrCorrupt
			}
			dst = append(dst, src[i:i+8]...)
			i += 8
		case b842Ref8:
			if !need(2) {
				return dst, ErrCorrupt
			}
			idx := int(src[i]) | int(src[i+1])<<8
			i += 2
			if !copyFrag(idx*8, 8) {
				return dst, ErrCorrupt
			}
		case b842Ref44:
			if !need(4) {
				return dst, ErrCorrupt
			}
			lo := int(src[i]) | int(src[i+1])<<8
			hi := int(src[i+2]) | int(src[i+3])<<8
			i += 4
			if !copyFrag(lo*4, 4) || !copyFrag(hi*4, 4) {
				return dst, ErrCorrupt
			}
		case b842Ref4Raw4:
			if !need(6) {
				return dst, ErrCorrupt
			}
			lo := int(src[i]) | int(src[i+1])<<8
			i += 2
			if !copyFrag(lo*4, 4) {
				return dst, ErrCorrupt
			}
			dst = append(dst, src[i:i+4]...)
			i += 4
		case b842Raw4Ref4:
			if !need(6) {
				return dst, ErrCorrupt
			}
			dst = append(dst, src[i:i+4]...)
			i += 4
			hi := int(src[i]) | int(src[i+1])<<8
			i += 2
			if !copyFrag(hi*4, 4) {
				return dst, ErrCorrupt
			}
		case b842Ref2222:
			if !need(8) {
				return dst, ErrCorrupt
			}
			for k := 0; k < 4; k++ {
				idx := int(src[i]) | int(src[i+1])<<8
				i += 2
				if !copyFrag(idx*2, 2) {
					return dst, ErrCorrupt
				}
			}
		case b842Zeros:
			dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
		case b842Repeat:
			if !need(1) {
				return dst, ErrCorrupt
			}
			reps := int(src[i])
			i++
			if len(dst)-base < 8 || reps == 0 {
				return dst, ErrCorrupt
			}
			start := len(dst) - 8
			for r := 0; r < reps; r++ {
				dst = append(dst, dst[start:start+8]...)
				start += 8
			}
		case b842RawTail:
			if !need(1) {
				return dst, ErrCorrupt
			}
			l := int(src[i])
			i++
			if l >= 8 || !need(l) {
				return dst, ErrCorrupt
			}
			dst = append(dst, src[i:i+l]...)
			i += l
			if i != n {
				return dst, ErrCorrupt
			}
		default:
			return dst, ErrCorrupt
		}
	}
	return dst, nil
}
