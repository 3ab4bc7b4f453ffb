package compress

import (
	"bytes"
	"compress/flate"
	"io"
)

// Deflate wraps the stdlib flate compressor at the default effort level,
// standing in for the kernel's deflate crypto-API compressor. It is the
// highest-ratio / highest-latency codec class in the paper's Table 1.
//
// The codec itself holds no state: a flate.Writer is ~0.8 MB of hash tables,
// reusable through Reset, and it lives in the caller's Scratch. The
// stateless Compress builds a throwaway one per call — correct, lock-free
// and slow; anything that compresses pages in volume owns a Scratch.
// Decompress builds a throwaway reader (~40 KB) per call.
type Deflate struct {
	name  string
	level int
}

// NewDeflate returns the deflate codec (flate level 6, zlib's default).
func NewDeflate() *Deflate { return &Deflate{name: "deflate", level: 6} }

// Name implements Codec.
func (d *Deflate) Name() string { return d.name }

// flateState is a flate writer and its output adapter, created on first
// use and Reset per block.
type flateState struct {
	w   *flate.Writer
	out sliceWriter
}

// sliceWriter appends to a byte slice, so the writer emits straight into
// the caller's dst.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Compress implements Codec.
func (d *Deflate) Compress(dst, src []byte) []byte {
	var st flateState
	return st.compress(d.level, dst, src)
}

func (d *Deflate) compressScratch(s *Scratch, dst, src []byte) []byte {
	return s.flateState().compress(d.level, dst, src)
}

func (s *Scratch) flateState() *flateState {
	if s.flate == nil {
		s.flate = new(flateState)
	}
	return s.flate
}

func (st *flateState) compress(level int, dst, src []byte) []byte {
	st.out.b = dst
	if st.w == nil {
		w, err := flate.NewWriter(&st.out, level)
		if err != nil {
			// Level is a compile-time constant in range; this cannot happen.
			panic(err)
		}
		st.w = w
	} else {
		st.w.Reset(&st.out)
	}
	if _, err := st.w.Write(src); err != nil {
		panic(err) // sliceWriter writes cannot fail
	}
	if err := st.w.Close(); err != nil {
		panic(err)
	}
	dst, st.out.b = st.out.b, nil
	return dst
}

// Decompress implements Codec.
func (d *Deflate) Decompress(dst, src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	out := dst
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := r.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return dst, ErrCorrupt
		}
	}
}
