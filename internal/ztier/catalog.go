package ztier

import "tierscape/internal/media"

// The characterization tier set (paper §5, Figure 2): the cross product of
// {zbud, zsmalloc} pools, {lz4, lzo, deflate} codecs and {DRAM, Optane}
// media, numbered C1…C12 in increasing access-latency order:
// codec dominates (lz4 < lzo < deflate), then pool (zbud < zsmalloc),
// then media (DRAM < Optane).
//
// Anchors from the paper's §5.1:
//
//	C1  = ZB-L4-DR — best performance
//	C2  = ZB-L4-OP — lowest-latency Optane-backed tier
//	C4  = ZS-L4-OP — fast codec, dense packing, cheap media
//	C7  = ZS-LO-DR — GSwap's tier (lzo + zsmalloc on DRAM)
//	C12 = ZS-DE-OP — best memory TCO savings
var characterization = []Config{
	{Codec: "lz4", Pool: "zbud", Media: media.DRAM},         // C1
	{Codec: "lz4", Pool: "zbud", Media: media.NVMM},         // C2
	{Codec: "lz4", Pool: "zsmalloc", Media: media.DRAM},     // C3
	{Codec: "lz4", Pool: "zsmalloc", Media: media.NVMM},     // C4
	{Codec: "lzo", Pool: "zbud", Media: media.DRAM},         // C5
	{Codec: "lzo", Pool: "zbud", Media: media.NVMM},         // C6
	{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM},     // C7
	{Codec: "lzo", Pool: "zsmalloc", Media: media.NVMM},     // C8
	{Codec: "deflate", Pool: "zbud", Media: media.DRAM},     // C9
	{Codec: "deflate", Pool: "zbud", Media: media.NVMM},     // C10
	{Codec: "deflate", Pool: "zsmalloc", Media: media.DRAM}, // C11
	{Codec: "deflate", Pool: "zsmalloc", Media: media.NVMM}, // C12
}

// Characterization returns the configuration of characterization tier Ck
// (k in 1..12).
func Characterization(k int) Config {
	if k < 1 || k > len(characterization) {
		panic("ztier: characterization tier index out of range")
	}
	return characterization[k-1]
}

// CT1 is GSwap's production tier: lzo + zsmalloc backed by DRAM — a
// low-latency, low-compression tier suited to warm pages (§8: "CT-1").
func CT1() Config { return Config{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM} }

// CT2 is TMO's production tier: zstd + zsmalloc backed by Optane — a
// high-latency, high-compression tier suited to cold pages (§8: "CT-2").
func CT2() Config { return Config{Codec: "zstd", Pool: "zsmalloc", Media: media.NVMM} }

// SpectrumSet returns the five compressed tiers used in the paper's
// six-tier "spectrum" experiments (§8.3): C1, C2, C4, C7 and C12.
func SpectrumSet() []Config {
	return []Config{
		Characterization(1),
		Characterization(2),
		Characterization(4),
		Characterization(7),
		Characterization(12),
	}
}

// OptionSpace enumerates every compressed-tier configuration Linux offers
// (Table 1) but 842, which the option-space census (EXPERIMENTS.md) found
// dominated in every cell: 6 codecs × 3 pool managers × 3 media = 54 tiers.
func OptionSpace() []Config {
	codecs := []string{"deflate", "lzo", "lzo-rle", "lz4", "zstd", "lz4hc"}
	pools := []string{"zsmalloc", "zbud", "z3fold"}
	out := make([]Config, 0, len(codecs)*len(pools)*3)
	for _, c := range codecs {
		for _, p := range pools {
			for _, m := range media.Kinds() {
				out = append(out, Config{Codec: c, Pool: p, Media: m})
			}
		}
	}
	return out
}
