// Package compress implements the block compression codecs TierScape's
// compressed tiers are built from. All codecs are implemented from scratch
// on the stdlib only:
//
//   - lz4      — the real LZ4 block format (fast greedy matcher)
//   - lz4hc    — LZ4 block format with chained-hash deep matching
//   - lzo      — an LZO-class byte-aligned LZSS codec
//   - lzo-rle  — lzo plus a run-length fast path (zero-run heavy pages)
//   - deflate  — stdlib compress/flate at the kernel's default effort
//   - zstd     — "zstd-class": a from-scratch hash-chain LZ77 stage (64 KB
//     window, depth-32 search) with canonical-Huffman coding of the literal
//     and sequence streams (zstdsim.go, huffman.go; not the RFC 8878
//     bitstream — see DESIGN.md)
//
// Every codec is deterministic and round-trips arbitrary input. Compression
// may expand incompressible input; the tier layer rejects pages whose
// compressed size exceeds the page size, mirroring zswap's behaviour.
//
// The registered codecs are stateless values, safe to share between any
// number of goroutines. The working state that makes a page cheap to
// compress — lz4's and zstd's match tables, lz4hc's chain, the Huffman
// workspace, flate's writer and reader — belongs to the caller, in a
// Scratch (scratch.go), and never changes a byte of output.
package compress

import (
	"errors"
	"fmt"
)

// Codec is a one-shot block compressor.
type Codec interface {
	// Name returns the codec's registry name (e.g. "lz4").
	Name() string
	// Compress appends the compressed form of src to dst and returns the
	// extended slice. Compress never fails; incompressible data may expand.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst and returns
	// the extended slice. It returns an error if src is corrupt.
	Decompress(dst, src []byte) ([]byte, error)
}

// ErrCorrupt is returned when a compressed block cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt input")

var registry = map[string]Codec{}

// Register installs a codec under its name. It panics on duplicates, since
// codec registration happens at init time and a duplicate is a programming
// error.
func Register(c Codec) {
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", c.Name()))
	}
	registry[c.Name()] = c
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

func init() {
	Register(NewLZ4())
	Register(NewLZ4HC())
	Register(NewLZO())
	Register(NewLZORLE())
	Register(NewDeflate())
	Register(NewZstd())
}
