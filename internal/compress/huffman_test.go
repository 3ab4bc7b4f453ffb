package compress

import (
	"bytes"
	"testing"
	"testing/quick"

	"tierscape/internal/corpus"
	"tierscape/internal/stats"
)

func huffRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := huffEncode(nil, src)
	got, rem, err := huffDecode(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v (src len %d)", err, len(src))
	}
	if len(rem) != 0 {
		t.Fatalf("decode left %d bytes unconsumed", len(rem))
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
}

func TestHuffmanRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1, 2, 3},
		bytes.Repeat([]byte{7}, 1000),
		bytes.Repeat([]byte("ab"), 500),
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	for _, c := range cases {
		huffRoundTrip(t, c)
	}
}

func TestHuffmanRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		enc := huffEncode(nil, src)
		got, rem, err := huffDecode(nil, enc)
		return err == nil && len(rem) == 0 && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanCompressesSkewedData(t *testing.T) {
	// Heavily skewed byte distribution must compress well.
	rng := stats.NewRNG(1)
	src := make([]byte, 8192)
	for i := range src {
		if rng.Float64() < 0.9 {
			src[i] = 'e'
		} else {
			src[i] = byte(rng.Intn(16))
		}
	}
	enc := huffEncode(nil, src)
	if len(enc) > len(src)/2 {
		t.Fatalf("skewed data coded to %d/%d bytes; want < half", len(enc), len(src))
	}
}

func TestHuffmanRawFallbackForRandom(t *testing.T) {
	rng := stats.NewRNG(2)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(rng.Uint32())
	}
	enc := huffEncode(nil, src)
	// Raw fallback: flag + varint + data.
	if len(enc) > len(src)+4 {
		t.Fatalf("random data expanded to %d bytes", len(enc))
	}
	huffRoundTrip(t, src)
}

func TestHuffmanMultipleBlocks(t *testing.T) {
	// Sequential blocks in one buffer must decode in order.
	a := []byte("first block of text text text")
	b := bytes.Repeat([]byte{9}, 300)
	enc := huffEncode(nil, a)
	enc = huffEncode(enc, b)
	gotA, rem, err := huffDecode(nil, enc)
	if err != nil || !bytes.Equal(gotA, a) {
		t.Fatalf("block A: %v", err)
	}
	gotB, rem, err := huffDecode(nil, rem)
	if err != nil || !bytes.Equal(gotB, b) || len(rem) != 0 {
		t.Fatalf("block B: %v (rem %d)", err, len(rem))
	}
}

func TestHuffmanCorruptInputs(t *testing.T) {
	src := bytes.Repeat([]byte("hello world "), 100)
	enc := huffEncode(nil, src)
	for cut := 0; cut < len(enc); cut += 17 {
		if _, _, err := huffDecode(nil, enc[:cut]); err == nil && cut < len(enc)-1 {
			// Some truncations may still decode (raw tail), but must not panic.
			continue
		}
	}
	if _, _, err := huffDecode(nil, []byte{2, 5, 1, 2, 3}); err == nil {
		t.Fatal("bad block kind accepted")
	}
	if _, _, err := huffDecode(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestHuffmanKraftValidLengths(t *testing.T) {
	// Property: code lengths from huffBuilder.lengths always satisfy Kraft
	// (sum 2^-l <= 1) and never exceed huffMaxBits, even on adversarial
	// frequency distributions (fibonacci-like forces deep trees).
	var freq [256]int64
	a, b := int64(1), int64(1)
	for i := 0; i < 64; i++ {
		freq[i] = a
		a, b = b, a+b
		if a > 1<<40 {
			break
		}
	}
	var hb huffBuilder
	lengths := hb.lengths(&freq)
	kraft := 0.0
	for s, l := range lengths {
		if l > huffMaxBits {
			t.Fatalf("symbol %d has length %d > %d", s, l, huffMaxBits)
		}
		if l > 0 {
			kraft += 1 / float64(int64(1)<<l)
		}
	}
	if kraft > 1.0000001 {
		t.Fatalf("Kraft sum %v > 1: not decodable", kraft)
	}
}

func TestBitIORoundTrip(t *testing.T) {
	w := bitWriter{}
	vals := []struct {
		v uint32
		n uint
	}{{1, 1}, {0, 1}, {5, 3}, {1023, 10}, {0x7fff, 15}, {0, 5}, {1, 1}}
	for _, x := range vals {
		w.writeBits(x.v, x.n)
	}
	w.flush()
	r := bitReader{in: w.out}
	for i, x := range vals {
		got, ok := r.readBits(x.n)
		if !ok || got != x.v {
			t.Fatalf("value %d: got %d ok=%v, want %d", i, got, ok, x.v)
		}
	}
}

// BenchmarkHuffEncode times the entropy stage alone on the streams the
// zstd-class encoder hands it: the literals of text, binary and random
// pages, and text pages' sequence tokens. Each case cycles through 64
// pages' streams, so the tree build's data-dependent branches are not
// learnt from one input repeated.
func BenchmarkHuffEncode(b *testing.B) {
	streams := func(prof corpus.Profile, tokens bool) (out [][]byte, total int) {
		var e zstdEncoder
		g := corpus.NewGenerator(prof, 42)
		for i := uint64(0); i < 64; i++ {
			e.compress(nil, g.Page(i, 4096))
			s := e.literals
			if tokens {
				s = e.tokens
			}
			out = append(out, bytes.Clone(s))
			total += len(s)
		}
		return out, total
	}
	for _, bc := range []struct {
		name   string
		prof   corpus.Profile
		tokens bool
	}{
		{"text", corpus.Dickens, false},
		{"binary", corpus.Binary, false},
		{"random", corpus.Random, false},
		{"tokens", corpus.Dickens, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srcs, total := streams(bc.prof, bc.tokens)
			var hb huffBuilder
			var dst []byte
			b.SetBytes(int64(total / len(srcs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = hb.encode(dst[:0], srcs[i%len(srcs)])
			}
		})
	}
}
