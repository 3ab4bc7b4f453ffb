package compress

import (
	"bytes"
	"testing"

	"tierscape/internal/corpus"
)

// FuzzRoundTrip asserts the fundamental codec invariant on arbitrary
// input: Decompress(Compress(x)) == x, for every registered codec.
// Run with `go test -fuzz FuzzRoundTrip ./internal/compress`.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xAA}, 4096))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Add(corpus.NewGenerator(corpus.Dickens, 1).Page(0, 4096))
	f.Add(corpus.NewGenerator(corpus.Random, 1).Page(0, 512))
	f.Add(bytes.Repeat([]byte{0xAA}, 40000)) // longer than zstd's longest match
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, name := range Names() {
			c := MustLookup(name)
			comp := c.Compress(nil, src)
			got, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s: decompress of own output failed: %v", name, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip mismatch (%d bytes in, %d out)", name, len(src), len(got))
			}
		}
	})
}

// FuzzDecompressRobust asserts no codec panics or overruns on arbitrary
// (usually invalid) compressed input, and that output stays bounded.
func FuzzDecompressRobust(f *testing.F) {
	for _, name := range Names() {
		c := MustLookup(name)
		f.Add(c.Compress(nil, bytes.Repeat([]byte("hello "), 200)))
		f.Add(c.Compress(nil, bytes.Repeat([]byte{7}, 3000))) // offset-1 overlapping copies
	}
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Add([]byte{})
	// One literal, then a match at offset 1 whose length runs down a chain
	// of extension bytes: the longest output these formats can ask for.
	f.Add(append(append([]byte{0x1F, 'x', 1, 0}, bytes.Repeat([]byte{255}, 64)...), 0, 0)) // lz4
	f.Add(append(append([]byte{0x02, 'x', 0x07, 0}, bytes.Repeat([]byte{255}, 64)...), 0)) // lzo
	// Truncated input: a final stored block that promises 65535 bytes and
	// carries four, and an extension chain that never ends.
	f.Add([]byte{0x01, 0xFF, 0xFF, 0x00, 0x00, 'a', 'b', 'c', 'd'}) // deflate
	f.Add(bytes.Repeat([]byte{255}, 64))
	f.Fuzz(func(t *testing.T, comp []byte) {
		for _, name := range Names() {
			c := MustLookup(name)
			out, _ := c.Decompress(nil, comp)
			// Hostile input can amplify. The LZ family's block copies size
			// one append from a length-extension chain, so they are held
			// to the formats' own maximum, 255 bytes of output per input
			// byte; zstd to its own, a page-long match per five token
			// bytes. Deflate has no such constant, so it gets a generous
			// linear bound that still proves termination without
			// unbounded memory growth.
			bound := 4096 * (len(comp) + 16)
			switch name {
			case "lz4", "lz4hc", "lzo", "lzo-rle":
				bound = lzMaxExpansion(len(comp))
			case "zstd":
				bound = zstdMaxExpansion(len(comp))
			}
			if len(out) > bound {
				t.Fatalf("%s: %d bytes decompressed from %d — amplification bound %d exceeded",
					name, len(out), len(comp), bound)
			}
		}
	})
}
