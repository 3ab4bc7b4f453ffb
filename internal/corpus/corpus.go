// Package corpus generates deterministic synthetic page contents with
// controlled compressibility, standing in for the Silesia corpus data sets
// used by the paper's characterization experiments (Section 5).
//
// Two profiles mirror the paper's choices:
//
//   - NCI: highly compressible — repetitive structured records in the style
//     of the Silesia "nci" chemical-structure database (line-oriented,
//     small alphabet, heavy repetition).
//   - Dickens: English prose statistics in the style of the Silesia
//     "dickens" text — compressible, but far less than nci.
//
// Additional profiles (Zero, Random, Binary, Mixed) exercise edge cases:
// all-zero pages compress maximally; random pages are incompressible and
// must be rejected by compressed tiers (the zswap behaviour the paper's
// footnote 1 documents).
package corpus

import (
	"tierscape/internal/stats"
)

// Profile identifies a content generator.
type Profile int

// Content profiles, from most to least compressible.
const (
	Zero Profile = iota
	NCI
	Binary
	Dickens
	Mixed
	Random
	// Regional varies compressibility by 2 MB region (512-page blocks):
	// regions rotate highly-compressible / text-like / incompressible.
	// Multi-tenant systems show exactly this kind of per-virtual-address-
	// region diversity (§3.4), which compressibility-aware placement
	// exploits.
	Regional
)

// String returns the profile name.
func (p Profile) String() string {
	switch p {
	case Zero:
		return "zero"
	case NCI:
		return "nci"
	case Binary:
		return "binary"
	case Dickens:
		return "dickens"
	case Mixed:
		return "mixed"
	case Random:
		return "random"
	case Regional:
		return "regional"
	default:
		return "unknown"
	}
}

// Profiles lists all available profiles.
func Profiles() []Profile {
	return []Profile{Zero, NCI, Binary, Dickens, Mixed, Random, Regional}
}

// Generator produces deterministic page contents: the same (profile, seed,
// page index) always yields identical bytes, so page contents never need to
// be stored for pages living in byte-addressable tiers — they can be
// regenerated on demand when the page is compressed.
type Generator struct {
	profile Profile
	seed    uint64
}

// NewGenerator returns a generator for the given profile and seed.
func NewGenerator(profile Profile, seed uint64) *Generator {
	return &Generator{profile: profile, seed: seed}
}

// Fill writes the contents of page pageIdx into buf (typically 4096 bytes).
func (g *Generator) Fill(pageIdx uint64, buf []byte) {
	r := stats.MakeRNG(g.seed ^ (pageIdx+1)*0x9e3779b97f4a7c15)
	rng := &r // stays on Fill's stack: no fill* keeps it
	switch g.profile {
	case Zero:
		for i := range buf {
			buf[i] = 0
		}
	case NCI:
		fillNCI(rng, buf)
	case Binary:
		fillBinary(rng, buf)
	case Dickens:
		fillDickens(rng, buf)
	case Mixed:
		// Alternate profiles by page so a region mixes compressibility.
		switch pageIdx % 4 {
		case 0:
			fillNCI(rng, buf)
		case 1:
			fillDickens(rng, buf)
		case 2:
			fillBinary(rng, buf)
		default:
			fillRandom(rng, buf)
		}
	case Random:
		fillRandom(rng, buf)
	case Regional:
		// Whole 512-page regions share one compressibility class.
		switch (pageIdx / 512) % 3 {
		case 0:
			fillNCI(rng, buf)
		case 1:
			fillDickens(rng, buf)
		default:
			fillRandom(rng, buf)
		}
	default:
		fillRandom(rng, buf)
	}
}

// Page is a convenience wrapper allocating and filling a fresh buffer.
func (g *Generator) Page(pageIdx uint64, size int) []byte {
	buf := make([]byte, size)
	g.Fill(pageIdx, buf)
	return buf
}

// fillNCI emits repetitive structured records reminiscent of the nci data
// set: a tiny alphabet, fixed-format numeric fields, and many repeated
// lines, yielding compression ratios of 10x+ with strong LZ codecs.
func fillNCI(rng *stats.RNG, buf []byte) {
	// A handful of template lines, repeated with small numeric perturbations.
	templates := [...]string{
		"  1  C    0.0000    0.0000    0.0000 0 0 0 0 0\n",
		"  2  O    1.2090    0.0000    0.0000 0 0 0 0 0\n",
		"  3  N    0.5000    1.1000    0.0000 0 0 0 0 0\n",
		"M  END\n",
		"$$$$\n",
	}
	pos := 0
	for pos < len(buf) {
		t := templates[rng.Intn(len(templates))]
		// Repeat the same template line several times in a row: nci-like
		// data has long runs of near-identical records.
		reps := 4 + rng.Intn(12)
		for r := 0; r < reps && pos < len(buf); r++ {
			n := copy(buf[pos:], t)
			pos += n
		}
		// Occasionally perturb one digit to bound the repetition.
		if pos < len(buf) && pos > 0 && rng.Intn(4) == 0 {
			buf[pos-2] = byte('0' + rng.Intn(10))
		}
	}
}

// dickensWords approximates English word-frequency statistics; the top words
// follow natural-language frequencies so entropy coding and LZ matching see
// text-like input.
var dickensWords = []string{
	"the", "of", "and", "a", "to", "in", "he", "was", "i", "it",
	"that", "his", "her", "you", "with", "as", "had", "for", "she", "not",
	"at", "but", "be", "my", "on", "have", "him", "is", "said", "me",
	"which", "by", "so", "this", "all", "from", "they", "no", "were", "if",
	"would", "or", "when", "what", "there", "been", "one", "could", "very",
	"an", "who", "them", "mr", "we", "now", "more", "out", "do", "are",
	"up", "their", "your", "will", "little", "than", "then", "some", "into",
	"any", "well", "much", "about", "time", "know", "should", "man", "did",
	"like", "upon", "such", "never", "only", "good", "how", "before", "other",
	"see", "must", "am", "own", "come", "down", "say", "after", "think",
	"made", "might", "being", "mrs", "again", "great", "two", "day", "miss",
	"come", "went", "old", "us", "through", "looked", "himself", "face",
}

// dickensZipf is the word sampler's constants, computed once; every page
// draws from its own copy, bound to the page's generator.
var dickensZipf = stats.MakeZipf(nil, int64(len(dickensWords)), 1.0, false)

// fillDickens emits word sequences with Zipf-distributed word choice,
// sentence structure, and punctuation, approximating English prose entropy
// (typical deflate ratio ~2.5-3x).
//
// Known fidelity bug, pinned rather than fixed: θ = 1.0 is the YCSB
// formula's singularity (alpha = 1/(1−θ) = +Inf, eta = 0), so every draw
// past rank 1 lands on the last word and the vocabulary collapses to
// "the", "of" and "face" plus the rare words ("Face the face face zlltea
// face face."). Fixing it moves every Dickens, Mixed and Regional byte and
// with them every ratio and TCO number, so it waits for ROADMAP item 1's
// re-baseline; TestFillGolden holds today's bytes until then.
func fillDickens(rng *stats.RNG, buf []byte) {
	z := dickensZipf.WithRNG(rng)
	pos := 0
	wordsInSentence := 0
	for pos < len(buf) {
		// Words go straight into buf (what does not fit is dropped); all
		// are lowercase ASCII.
		start := pos
		if rng.Float64() < 0.30 {
			// Rare words: English text has a long vocabulary tail; without it
			// the data deflates far better than real prose.
			n := 4 + rng.Intn(8)
			for i := 0; i < n; i++ {
				c := byte('a' + rng.Intn(26))
				if pos < len(buf) {
					buf[pos] = c
					pos++
				}
			}
		} else {
			pos += copy(buf[pos:], dickensWords[z.Next()])
		}
		if wordsInSentence == 0 {
			// Capitalize sentence starts.
			buf[start] -= 'a' - 'A'
		}
		wordsInSentence++
		if pos >= len(buf) {
			break
		}
		if wordsInSentence > 6+rng.Intn(10) {
			buf[pos] = '.'
			pos++
			if pos < len(buf) {
				buf[pos] = ' '
				pos++
			}
			wordsInSentence = 0
		} else {
			buf[pos] = ' '
			pos++
		}
	}
}

// fillBinary emits structured binary records: plausible in-memory object
// layouts with many zero bytes, small integers, and pointer-like fields —
// the kind of data a KV store's values and heap pages contain. Moderately
// compressible (~3-4x).
func fillBinary(rng *stats.RNG, buf []byte) {
	const rec = 64
	base := rng.Uint64() &^ 0xffff
	for off := 0; off+rec <= len(buf); off += rec {
		r := buf[off : off+rec]
		for i := range r {
			r[i] = 0
		}
		// Pointer-like field: shared base, low bits vary.
		p := base | uint64(rng.Uint32()&0xfff)
		putU64(r[0:], p)
		// Small integer fields.
		putU64(r[8:], uint64(rng.Intn(256)))
		putU64(r[16:], uint64(rng.Intn(16)))
		// Short ASCII tag.
		tags := [...]string{"obj", "key", "val", "idx"}
		copy(r[24:], tags[rng.Intn(len(tags))])
		// Rest stays zero.
	}
	// Tail bytes stay zero if buf is not a multiple of rec.
	if tail := len(buf) % rec; tail != 0 {
		for i := len(buf) - tail; i < len(buf); i++ {
			buf[i] = 0
		}
	}
}

func fillRandom(rng *stats.RNG, buf []byte) {
	i := 0
	for ; i+4 <= len(buf); i += 4 {
		v := rng.Uint32()
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(rng.Uint32())
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Source supplies page contents; Generator is the single-profile
// implementation. Composite stitches several sources over one address
// space — the content side of co-locating applications with different
// data on one tiered system.
type Source interface {
	// Fill writes the contents of page pageIdx into buf.
	Fill(pageIdx uint64, buf []byte)
}

// Segment is one tenant's slice of a composite address space.
type Segment struct {
	// Pages is the segment length.
	Pages int64
	// Source generates the segment's contents (indexed from 0 within the
	// segment).
	Source Source
}

// Composite concatenates segments into one content source.
type Composite struct {
	starts []uint64
	srcs   []Source
}

// NewComposite builds a composite source from segments in order.
func NewComposite(segments ...Segment) *Composite {
	c := &Composite{}
	var off uint64
	for _, s := range segments {
		c.starts = append(c.starts, off)
		c.srcs = append(c.srcs, s.Source)
		off += uint64(s.Pages)
	}
	c.starts = append(c.starts, off) // sentinel
	return c
}

// Fill implements Source by delegating to the owning segment.
func (c *Composite) Fill(pageIdx uint64, buf []byte) {
	// Linear scan: tenant counts are tiny.
	for i := 0; i < len(c.srcs); i++ {
		if pageIdx < c.starts[i+1] {
			c.srcs[i].Fill(pageIdx-c.starts[i], buf)
			return
		}
	}
	// Out of range: fall back to the last segment's generator semantics.
	if n := len(c.srcs); n > 0 {
		c.srcs[n-1].Fill(pageIdx-c.starts[n-1], buf)
	}
}
