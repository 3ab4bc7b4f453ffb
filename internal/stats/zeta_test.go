package stats

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// zetaBits pins zetaStatic's result bits, recorded from the serial loop
// before its terms were spread over workers. The n cover one range and
// two (zetaChunk ± 1), 2^14 ± 1, a range boundary 6·zetaChunk ± 1, the key
// counts of the KV workloads (10 752, 40 140, 57 344, 229 376), the exact
// sum's last n and the integral tail past it.
var zetaBits = []struct {
	n     int64
	theta float64
	bits  uint64
}{
	{1, 0.5, 0x3ff0000000000000},
	{1, 0.9, 0x3ff0000000000000},
	{1, 0.99, 0x3ff0000000000000},
	{2, 0.5, 0x3ffb504f333f9de6},
	{2, 0.9, 0x3ff892fdf7128332},
	{2, 0.99, 0x3ff80e3eb6202786},
	{4095, 0.5, 0x405fa2098c935b8f},
	{4095, 0.9, 0x402b164f26ba35e0},
	{4095, 0.99, 0x40227feb1bcef2a8},
	{4096, 0.5, 0x405fa3098c935b8f},
	{4096, 0.9, 0x402b1698ab0050cc},
	{4096, 0.99, 0x4022800de2572367},
	{4097, 0.5, 0x405fa4098493bb8a},
	{4097, 0.9, 0x402b16e22b24069e},
	{4097, 0.99, 0x40228030a6b89e4a},
	{10752, 0.5, 0x4069bdb3911da6d2},
	{10752, 0.9, 0x402fbe4a029a6bb5},
	{10752, 0.99, 0x40249b9745e7c754},
	{16383, 0.5, 0x406fd124c694587d},
	{16383, 0.9, 0x4030f5c02da88642},
	{16383, 0.99, 0x402588afa256c172},
	{16384, 0.5, 0x406fd164c694587d},
	{16384, 0.9, 0x4030f5cabc02b01f},
	{16384, 0.99, 0x402588b8730a6292},
	{16385, 0.5, 0x406fd1a4c61459fd},
	{16385, 0.9, 0x4030f5d54a36da14},
	{16385, 0.99, 0x402588c1439b1bb3},
	{24575, 0.5, 0x4073812366f7037f},
	{24575, 0.9, 0x40320d50487dd6ad},
	{24575, 0.99, 0x40266de8db47382f},
	{24576, 0.5, 0x4073813d87b4738b},
	{24576, 0.9, 0x40320d579c9badb5},
	{24576, 0.99, 0x40266deec1dbc421},
	{24577, 0.5, 0x40738157a84f0d8b},
	{24577, 0.9, 0x40320d5ef0a7ee3b},
	{24577, 0.99, 0x40266df4a860bc4e},
	{40140, 0.5, 0x4078f3dd4e3d022b},
	{40140, 0.9, 0x40336f1ad371e39d},
	{40140, 0.99, 0x4027848590e2e651},
	{57344, 0.5, 0x407dd795021e62e2},
	{57344, 0.9, 0x40347b6db16cc7de},
	{57344, 0.99, 0x40284fee98849dfb},
	{229376, 0.5, 0x408de33d6669cf78},
	{229376, 0.9, 0x4038ee160397032b},
	{229376, 0.99, 0x402b6d6a888d71d7},
	{1 << 20, 0.5, 0x409ffa2918d3e093},
	{1 << 20, 0.9, 0x403e91e42c311d8c},
	{1 << 20, 0.99, 0x402ee4847517c6bf},
	{1<<20 + 1, 0.5, 0x409ffa2a18d3dc93},
	{1<<20 + 1, 0.9, 0x403e91e46c311bbf},
	{1<<20 + 1, 0.99, 0x402ee48499d9e8b1},
	{1 << 24, 0.5, 0x40bffe8a4634f825},
	{1 << 24, 0.9, 0x4045acd37ec0370c},
	{1 << 24, 0.99, 0x4032acfe32015865},
}

// TestZetaBits: zeta(n, theta) has the serial loop's bits at the test's
// GOMAXPROCS, so zetan, eta and every draw do too.
func TestZetaBits(t *testing.T) {
	for _, c := range zetaBits {
		if got := math.Float64bits(zetaStatic(c.n, c.theta)); got != c.bits {
			t.Errorf("zetaStatic(%d, %v) = %#016x, want %#016x (GOMAXPROCS %d)",
				c.n, c.theta, got, c.bits, runtime.GOMAXPROCS(0))
		}
	}
}

// TestZetaParallelMatchesSerial: at GOMAXPROCS 1, 2 and 8 the exact sum
// equals a left-to-right loop over the same terms, bit for bit, and every
// pinned value holds.
func TestZetaParallelMatchesSerial(t *testing.T) {
	serial := make(map[int]float64)
	for k, c := range zetaBits {
		if c.n <= 1<<20 {
			sum := 0.0
			for i := int64(1); i <= c.n; i++ {
				sum += 1 / math.Pow(float64(i), c.theta)
			}
			serial[k] = sum
		}
	}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for k, c := range zetaBits {
				got := math.Float64bits(zetaStatic(c.n, c.theta))
				if want, ok := serial[k]; ok && got != math.Float64bits(want) {
					t.Errorf("GOMAXPROCS %d: zetaStatic(%d, %v) = %#016x, the serial loop gives %#016x",
						procs, c.n, c.theta, got, math.Float64bits(want))
				}
				if got != c.bits {
					t.Errorf("GOMAXPROCS %d: zetaStatic(%d, %v) = %#016x, want %#016x",
						procs, c.n, c.theta, got, c.bits)
				}
			}
		}()
	}
}

var zetaSink float64

func BenchmarkZetaStatic(b *testing.B) {
	for _, n := range []int64{229376, 1 << 20} {
		for _, bc := range []struct {
			name  string
			procs int
		}{{"one_worker", 1}, {"all_cores", 0}} {
			b.Run("n="+strconv.FormatInt(n, 10)+"/"+bc.name, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
				for i := 0; i < b.N; i++ {
					zetaSink += zetaStatic(n, 0.99)
				}
			})
		}
	}
}
