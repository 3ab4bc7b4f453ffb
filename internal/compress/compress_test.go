package compress

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"tierscape/internal/corpus"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, n := range Names() {
		c, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	if len(cs) != 6 {
		t.Fatalf("expected 6 registered codecs, have %d: %v", len(cs), Names())
	}
	return cs
}

func roundTrip(t *testing.T, c Codec, src []byte) {
	t.Helper()
	comp := c.Compress(nil, src)
	got, err := c.Decompress(nil, comp)
	if err != nil {
		t.Fatalf("%s: decompress error: %v (src len %d)", c.Name(), err, len(src))
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: round trip mismatch: src %d bytes, got %d bytes", c.Name(), len(src), len(got))
	}
}

func TestRoundTripCorpus(t *testing.T) {
	for _, c := range allCodecs(t) {
		for _, p := range corpus.Profiles() {
			g := corpus.NewGenerator(p, 42)
			for _, pageIdx := range []uint64{0, 1, 99} {
				roundTrip(t, c, g.Page(pageIdx, 4096))
			}
		}
	}
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1, 2, 3},
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte("ab"), 2048),
		bytes.Repeat([]byte("abcdefg"), 585),
		[]byte("short"),
		append(bytes.Repeat([]byte{0}, 4090), 1, 2, 3, 4, 5, 6),
	}
	for _, c := range allCodecs(t) {
		for i, src := range cases {
			comp := c.Compress(nil, src)
			got, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s case %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s case %d: mismatch", c.Name(), i)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(src []byte) bool {
			comp := c.Compress(nil, src)
			got, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, src)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestRoundTripAllSizes(t *testing.T) {
	// Every size from 0..300 with quasi-random content exercises tail
	// handling in every codec.
	g := corpus.NewGenerator(corpus.Mixed, 7)
	for _, c := range allCodecs(t) {
		for size := 0; size <= 300; size += 7 {
			roundTrip(t, c, g.Page(uint64(size), size))
		}
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	for _, c := range allCodecs(t) {
		prefix := []byte("prefix")
		src := bytes.Repeat([]byte("hello world "), 100)
		out := c.Compress(append([]byte(nil), prefix...), src)
		if !bytes.HasPrefix(out, prefix) {
			t.Errorf("%s: Compress clobbered dst prefix", c.Name())
		}
		got, err := c.Decompress(append([]byte(nil), prefix...), out[len(prefix):])
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(got, append(prefix, src...)) {
			t.Errorf("%s: Decompress did not append to dst", c.Name())
		}
	}
}

func TestDecompressCorruptInput(t *testing.T) {
	// Corrupt/truncated inputs must return an error or wrong-but-bounded
	// output — never panic.
	g := corpus.NewGenerator(corpus.Dickens, 3)
	src := g.Page(0, 4096)
	for _, c := range allCodecs(t) {
		comp := c.Compress(nil, src)
		for cut := 1; cut < len(comp); cut += 97 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on truncated input: %v", c.Name(), r)
					}
				}()
				_, _ = c.Decompress(nil, comp[:cut])
			}()
		}
		// Bit flips.
		for i := 0; i < len(comp); i += 53 {
			mut := append([]byte(nil), comp...)
			mut[i] ^= 0xFF
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on corrupted input at %d: %v", c.Name(), i, r)
					}
				}()
				_, _ = c.Decompress(nil, mut)
			}()
		}
	}

	// Overlapping copies: `period` literals, then a match `period` back
	// that reaches into its own output (lz4's shortest match is 4; lzo's
	// inline lengths end at 9 and its extension chain starts at 10). On
	// either side of the periods where a block copy's doubling changes
	// step, the decoders must reproduce the byte-at-a-time result; the same
	// block pointing one byte further back than there is output must be
	// refused.
	lz4, lzo := MustLookup("lz4"), MustLookup("lzo")
	for _, period := range []int{1, 2, 3, 7, 8, 9} {
		for _, length := range []int{4, 9, 10, 19, 20, 300, 1000} {
			lits := []byte("abcdefghi")[:period]
			want := append([]byte(nil), lits...)
			for i := 0; i < length; i++ {
				want = append(want, want[len(want)-period])
			}
			blocks := map[Codec]func(offset int) []byte{
				lz4: func(offset int) []byte {
					return lz4EmitLastLiterals(lz4EmitSequence(nil, lits, offset, length), nil)
				},
				lzo: func(offset int) []byte {
					var e lzoEncoder
					for _, b := range lits {
						e.literal(b)
					}
					e.match(offset, length)
					return e.dst
				},
			}
			for c, block := range blocks {
				got, err := c.Decompress(nil, block(period))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: period %d, match length %d: %d bytes, err %v; want %d bytes", c.Name(), period, length, len(got), err, len(want))
				}
				if _, err := c.Decompress(nil, block(period+1)); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: period %d, match length %d: offset past the start of the output: err %v, want ErrCorrupt", c.Name(), period, length, err)
				}
			}
		}
	}
}

func TestRatioOrderingNCI(t *testing.T) {
	// On highly compressible data: deflate-class must beat lz4-class, and
	// lz4hc must be at least as good as lz4.
	g := corpus.NewGenerator(corpus.NCI, 11)
	src := make([]byte, 0, 8*4096)
	for i := uint64(0); i < 8; i++ {
		src = append(src, g.Page(i, 4096)...)
	}
	r := map[string]float64{}
	for _, c := range allCodecs(t) {
		r[c.Name()] = Ratio(c, src)
	}
	if r["deflate"] >= r["lz4"] {
		t.Errorf("deflate %.3f should beat lz4 %.3f on nci", r["deflate"], r["lz4"])
	}
	if r["zstd"] >= r["lz4"] {
		t.Errorf("zstd %.3f should beat lz4 %.3f on nci", r["zstd"], r["lz4"])
	}
	if r["lz4hc"] > r["lz4"]+1e-9 {
		t.Errorf("lz4hc %.3f should be <= lz4 %.3f", r["lz4hc"], r["lz4"])
	}
	for name, ratio := range r {
		if ratio > 0.6 {
			t.Errorf("%s ratio %.3f on nci; all codecs should compress nci well", name, ratio)
		}
	}
}

func TestRatioRandomIncompressible(t *testing.T) {
	g := corpus.NewGenerator(corpus.Random, 13)
	src := g.Page(0, 4096)
	for _, c := range allCodecs(t) {
		ratio := Ratio(c, src)
		if ratio < 0.95 {
			t.Errorf("%s compressed random data to %.3f; suspicious", c.Name(), ratio)
		}
		if ratio > 1.30 {
			t.Errorf("%s expanded random data to %.3f; expansion should be bounded", c.Name(), ratio)
		}
	}
}

func TestZeroPagesCompressExtremely(t *testing.T) {
	src := make([]byte, 4096)
	for _, c := range allCodecs(t) {
		ratio := Ratio(c, src)
		if ratio > 0.05 {
			t.Errorf("%s ratio %.4f on zero page; want < 0.05", c.Name(), ratio)
		}
	}
}

func TestLZORLEBeatsLZOOnRuns(t *testing.T) {
	src := bytes.Repeat([]byte{0}, 2048)
	src = append(src, bytes.Repeat([]byte{7}, 2048)...)
	lzo := MustLookup("lzo")
	rle := MustLookup("lzo-rle")
	if lr, rr := Ratio(lzo, src), Ratio(rle, src); rr > lr+1e-9 {
		t.Errorf("lzo-rle %.4f should be <= lzo %.4f on run-heavy data", rr, lr)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown codec should fail")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of unknown codec should panic")
		}
	}()
	MustLookup("nope")
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	Register(NewLZ4())
}

func TestConcurrentStatelessCodecs(t *testing.T) {
	// The registered codecs are process-wide singletons and hold no
	// state: hammer the two that used to (deflate kept one flate.Writer
	// under a mutex) from several goroutines (run with -race).
	g := corpus.NewGenerator(corpus.Dickens, 5)
	codecs := []Codec{MustLookup("deflate"), MustLookup("zstd")}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c := codecs[w%len(codecs)]
			for i := 0; i < 20; i++ {
				src := g.Page(uint64(w*100+i), 4096)
				comp := c.Compress(nil, src)
				got, err := c.Decompress(nil, comp)
				if err != nil || !bytes.Equal(got, src) {
					done <- fmt.Errorf("%s: round trip of page %d: %v", c.Name(), w*100+i, err)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLZ4LongMatches(t *testing.T) {
	// Matches far longer than token max exercise length extension bytes.
	src := bytes.Repeat([]byte("x"), 70000)
	roundTrip(t, MustLookup("lz4"), src)
	roundTrip(t, MustLookup("lz4hc"), src)
	roundTrip(t, MustLookup("lzo"), src)
	roundTrip(t, MustLookup("lzo-rle"), src)
}

func TestLZ4LongLiterals(t *testing.T) {
	// Incompressible long input exercises literal length extensions.
	g := corpus.NewGenerator(corpus.Random, 21)
	src := g.Page(0, 70000)
	for _, c := range allCodecs(t) {
		roundTrip(t, c, src)
	}
}
