package compress

// Scratch is one owner's reusable encoder state: the lz4 and zstd-class
// encoders' tables and buffers, lz4hc's chain, and a flate writer. It models the per-CPU compression contexts the kernel's
// zswap keeps (crypto_acomp): state that makes a page cheaper to compress
// without carrying anything from one page to the next, so output bytes
// are those of the stateless Codec methods. Nothing decodes pages in
// volume, so a Scratch holds no decoder: decompression is the stateless
// Codec.Decompress.
//
// The zero value is ready; each codec's state is created on first use.
// A nil *Scratch is valid and falls back to the stateless methods. A
// Scratch is not safe for concurrent use — it belongs to one goroutine at
// a time (a push thread, a tier's fused store path under the tier lock) —
// and is garbage once its owner is.
type Scratch struct {
	lz4   *lz4Encoder
	lz4hc lz4hcEncoder
	zstd  *zstdEncoder
	flate *flateState
}

// scratchCompressor is implemented by the codecs that have state worth
// keeping; the rest are stateless already.
type scratchCompressor interface {
	compressScratch(s *Scratch, dst, src []byte) []byte
}

// Compress is c.Compress(dst, src) reusing s's state for c.
func (s *Scratch) Compress(c Codec, dst, src []byte) []byte {
	if sc, ok := c.(scratchCompressor); ok && s != nil {
		return sc.compressScratch(s, dst, src)
	}
	return c.Compress(dst, src)
}
