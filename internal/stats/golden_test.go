package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestZipfGolden pins Zipf.Next's draw sequence bit for bit: SHA-256 over
// 2^20 draws (little-endian int64s), recorded from the generator that
// recomputed 1+Pow(0.5, θ) on every draw and tested the hotspot shift with
// a modulo, before the constant was hoisted and the shift became a
// compare. Every KV, YCSB and Dickens-page byte downstream is a function of
// these sequences. The shifting cases re-issue SetShift mid-stream, which
// must keep counting from the draws already made.
func TestZipfGolden(t *testing.T) {
	want := map[string]string{
		"n=16/theta=0.5/scramble=false/shift=false":       "af8401049e99aefb254cfc29b266b3c309fcf02d4a2ae57da4a74b8bba947f9c",
		"n=16/theta=0.5/scramble=false/shift=true":        "eda06faf3aeb7bfc645496aab7dbfff2b5195fc56b6f3afebadd10f09f499d24",
		"n=16/theta=0.5/scramble=true/shift=false":        "2bb6b3a8a525a3b902c6f0d34e67ec4e8c4b591ccf8f61884abd1ed27b8ebd6c",
		"n=16/theta=0.5/scramble=true/shift=true":         "504e0c19d835629be9b0aa0b814c5df0c2724ae4a5213ece0b2e1b6590bd8899",
		"n=16/theta=0.99/scramble=false/shift=false":      "e58164c6090116aa0a41c58b6be1e4f96873adcbcebbf2e95e7409e0d2e0632f",
		"n=16/theta=0.99/scramble=false/shift=true":       "9d2a754205367d2b3ff3372d5dff48193eb684e5cf8d4793ba0ee401f5d9bd64",
		"n=16/theta=0.99/scramble=true/shift=false":       "4adc90e6bb26b32b46d07e2ca562c2c56be3d5c8bde06d34ee9a350c0360aa1f",
		"n=16/theta=0.99/scramble=true/shift=true":        "98f9e99ff0f64702f43cf28ce9b8beb1f3adceb462683de53549ade8bf89467f",
		"n=131072/theta=0.5/scramble=false/shift=false":   "c957fe6b2768bae5a6c04e0dbb37780fb8440c61152df587a9cc010df166d3fd",
		"n=131072/theta=0.5/scramble=false/shift=true":    "0dd1fca410f33e152b0f35c8b1cd2c236b1876ecb0614343a346d0779b9b05a5",
		"n=131072/theta=0.5/scramble=true/shift=false":    "3117c6a71371470a9643fa10d3f9058e3ce0c60335edf9b20008d0f40fa7f3d9",
		"n=131072/theta=0.5/scramble=true/shift=true":     "2c1e0e2fd388de8aacf57a7fb3c726476d163ea17435e6e574ecd288b20e3e48",
		"n=131072/theta=0.99/scramble=false/shift=false":  "acf4ccec3733059553072d39b36c61d34e4d133e4ea94f09b626b9cb54fca160",
		"n=131072/theta=0.99/scramble=false/shift=true":   "ecb1e644d2598857c218b90b0c41fe90905988fe9c25f87763356d47d0032b90",
		"n=131072/theta=0.99/scramble=true/shift=false":   "381ec1140372ff84396a793b97ca132199f52758bb21e0e91ae6a162096621a3",
		"n=131072/theta=0.99/scramble=true/shift=true":    "4d6c89e1d1d4c12502383a3b162bb542e85e77490e046d3346bf497aa3239695",
		"n=2097152/theta=0.5/scramble=false/shift=false":  "65521aab4e0422cdee026b78cdfa09e8e8fe012626d7ad56268248a1e26a8bfb",
		"n=2097152/theta=0.5/scramble=false/shift=true":   "a032d00ee0cc4116d15057913b603b8cd368b276119927c0ac885ef8d11e9a06",
		"n=2097152/theta=0.5/scramble=true/shift=false":   "8ba5f6cdfda1b144534d8864bf844d9364c1d1683d6125d026e40c060b3b2d6a",
		"n=2097152/theta=0.5/scramble=true/shift=true":    "e52a48f8a8132bcf6661a55e86be9d7b7eb11c8581215fe4fa75c86edd9c6a5a",
		"n=2097152/theta=0.99/scramble=false/shift=false": "d970be3aa43c8bebb8cb4a1c8a25255f4ebdf736e4906a4bf535228a00df153e",
		"n=2097152/theta=0.99/scramble=false/shift=true":  "de42d88c771c75c50ea917736baed75cdd2660f989ffbf4a466ec8be8d7fdaa0",
		"n=2097152/theta=0.99/scramble=true/shift=false":  "7bc54827748b461fe3f73834c5b56d57dd25967c4581aae11262355fd32abe81",
		"n=2097152/theta=0.99/scramble=true/shift=true":   "1de668460d6c670747ed980271cb6cf4476da0d78b68e9708343f53b9458e91d",
	}
	for _, n := range []int64{16, 1 << 17, 1 << 21} {
		for _, theta := range []float64{0.5, 0.99} {
			for _, scramble := range []bool{false, true} {
				for _, shift := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/theta=%v/scramble=%v/shift=%v", n, theta, scramble, shift)
					if got := zipfGoldenHash(n, theta, scramble, shift, 1<<20); got != want[name] {
						t.Errorf("%q: %q,", name, got)
					}
				}
			}
		}
	}
}

// zipfGoldenHash is SHA-256 over draws draws (little-endian int64s) of a
// Zipf seeded from n. A shifting stream rotates by n/64+1 every 30000 draws
// and re-issues SetShift half way, off the old period's grid (no power of
// two is a multiple of 30000) and onto one that is no divisor of it.
func zipfGoldenHash(n int64, theta float64, scramble, shift bool, draws int) string {
	buf := make([]byte, 8*4096)
	z := NewZipf(NewRNG(uint64(n)^0x7a69), n, theta, scramble)
	if shift {
		z.SetShift(30000, n/64+1)
	}
	h := sha256.New()
	for i := 0; i < draws; i += 4096 {
		if shift && i == draws/2 {
			z.SetShift(777, 5)
		}
		for j := 0; j < 4096; j++ {
			binary.LittleEndian.PutUint64(buf[8*j:], uint64(z.Next()))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestZipfGoldenExponents pins, with hashes recorded from the generator
// that took math.Pow on every tail draw, the samplers the integer-power
// path newly covers (theta 0.5, 0.75, 0.8, 0.9, 0.95, 0.99: alpha within
// 1e-13 of 2, 4, 5, 10, 20, 100) and one it must refuse (0.7: alpha = 3.33),
// at the universe sizes the repository draws from — Dickens' 114 words,
// kv_steady's 229 376 keys — and beyond zetaStatic's exact sum (2^24,
// 10^9+7). 2^18 draws a case.
func TestZipfGoldenExponents(t *testing.T) {
	want := map[string]string{
		"n=16/theta=0.5/shift=false":          "e4bfce99596e494c8a6fd53544c92e1854c6431d92dc2d35c816b08c2fdd1094",
		"n=16/theta=0.7/shift=false":          "86c1fcef4bc1c24ff4764b82a4c33f4c06458562882e74c14db1f64a8a210648",
		"n=16/theta=0.75/shift=false":         "42de72b08293e14daee836e2d99d15d2b547b152243413715ed16cd1d1399f66",
		"n=16/theta=0.8/shift=false":          "d7670f6c11cd1276addc8d5f11c32e24d1e7a97d3920d082f4ed2c91c9a91590",
		"n=16/theta=0.9/shift=false":          "0a638f16dc3cf7c520a4a2aa85458784e570affebd23cc2dd4c1f1698fa3e61b",
		"n=16/theta=0.95/shift=false":         "0a94ebf4fae648f58c9609a036ccd112be4e979ea162bf79c46a430153689ad0",
		"n=16/theta=0.99/shift=false":         "3444ad3cb9b043d450ca3bfdea485dc8a6595a2df84312f93920997ba6a0d89c",
		"n=114/theta=0.5/shift=false":         "f534df8ab35964e8450d82d4761dd340d4010323a58a32089c79141ea8ead9ab",
		"n=114/theta=0.7/shift=false":         "a58fc208ec1dd8f76f14ebf6c076977093fcc349d3f9904c4da377218c651fbe",
		"n=114/theta=0.75/shift=false":        "0ef928f061e073634f604b2b6d11cb5a28830135fe4a389c6966b09cd353a662",
		"n=114/theta=0.8/shift=false":         "94a91ffdd2668d00518b7ff18c35696f7cd11df6e5b90a4ab870565936d06277",
		"n=114/theta=0.9/shift=false":         "7a684e537ab311e7fdf70dae8caf2e929cf78b7a6c4441dbf7d5f3097c167877",
		"n=114/theta=0.95/shift=false":        "d5064b0572f255527e9f1e92b26c0ef4214cae1ae7141e1598b3e58c3f287ce2",
		"n=114/theta=0.99/shift=false":        "0ec849a130ce7f6c38002484f1aa1e9384abff6650328fd811d8e33d4a056b5b",
		"n=229376/theta=0.5/shift=false":      "d004c64d8ba445a1609c9c392956bab58d35b106ae174f12f0960077a023bccf",
		"n=229376/theta=0.7/shift=false":      "f9d5266347aa7f8a03b33b2c8225e6e412207e4f01c369c68b0629e4dcc55e85",
		"n=229376/theta=0.75/shift=false":     "37894d34c90afd606078dcb468ab1d09add78da70aedd12b5db78788519573d1",
		"n=229376/theta=0.8/shift=false":      "ceb9eb6eb4f154a3e6ac82db8c766aae454bd3828d2334f4e411fa76f7a29fa0",
		"n=229376/theta=0.9/shift=false":      "6fe71f0062913a869f065e1e794b40176a581133ac757f085d1ef1491afff357",
		"n=229376/theta=0.95/shift=false":     "e590a646ba2f2ed9b242664cca9dd3407dd1ff04aed0e486b991a27493bada11",
		"n=229376/theta=0.99/shift=false":     "067fce154cd162fdf42d81d9694b289fd5c58974104c5cc66c484fb24d9098aa",
		"n=229376/theta=0.99/shift=true":      "13084f61c0cff3681d3532c4be4397296c6dcf6d7b5d0687fac0423429b3e463",
		"n=16777216/theta=0.5/shift=false":    "8f0314771bdefc6df02a5bc77874e6aeba75d2e5589a3d09487a80e2493c6bf7",
		"n=16777216/theta=0.7/shift=false":    "e43faa3096f84bd4013b93020ef2c3c7b239b5344a31a776de525f6724f1d26b",
		"n=16777216/theta=0.75/shift=false":   "53b9c45eadb883aac014e05f0b90d4c5882092c751045537cb9ad36838962837",
		"n=16777216/theta=0.8/shift=false":    "8b6caa66e0b912cbd63592e1c0c9f9970bf27879c0d13d48c0d2fc459f3cd8bc",
		"n=16777216/theta=0.9/shift=false":    "6cd0efd33d7417434fe23f2d82c93a555ba65878a1cb929af88d154863a758d4",
		"n=16777216/theta=0.9/shift=true":     "88ac6fa1fa7373046415b200f6d6020f1820704cb06bc1c6e18eda4926dd9649",
		"n=16777216/theta=0.95/shift=false":   "9979d9be944b2e4b0966d45609b57ad8e682d0abf20e1e1f7d5b49bfe0bc223a",
		"n=16777216/theta=0.99/shift=false":   "759d301bed53b40e10f1d9d0dde74f8611094f9b6c6da6c78547060e7a63f848",
		"n=1000000007/theta=0.5/shift=false":  "e3681b26bb2bfde71937fb70d5ccd65ecbc21223163c5d913ceace872145959f",
		"n=1000000007/theta=0.7/shift=false":  "0a2f3008b510c97d7638392f879da69460eab83b0eb1edf276614425589f37dd",
		"n=1000000007/theta=0.7/shift=true":   "b7c12dd0388e5cfff5454c1bcb0b4cae3ebfb910c99a5003bfa98c71fbd96e35",
		"n=1000000007/theta=0.75/shift=false": "c3a9173d3093447bd2bb4dc00f99cc23bba5cfcb3e9229687ddf93d47e756017",
		"n=1000000007/theta=0.8/shift=false":  "f13804791a9d3ae46104801194646f648062872ac0fc3e0cbcb9ffe40063fc90",
		"n=1000000007/theta=0.9/shift=false":  "1d03891c5f78eecdad6d74c75b38ba5020511bf8e42ac0c562c811f2ed38b253",
		"n=1000000007/theta=0.95/shift=false": "2eb0165c6bb26bb9e46b1f67681efe809df0a6fecd0184326a891aa03b27f8cb",
		"n=1000000007/theta=0.99/shift=false": "e4cb354943f5d13cc458a6e925a0b347cafa448b4eacde2d7ad6c30a448a232d",
	}
	check := func(n int64, theta float64, shift bool) {
		name := fmt.Sprintf("n=%d/theta=%v/shift=%v", n, theta, shift)
		if got := zipfGoldenHash(n, theta, false, shift, 1<<18); got != want[name] {
			t.Errorf("%q: %q,", name, got)
		}
	}
	for _, n := range zipfExactNs {
		for _, theta := range append([]float64{0.7}, zipfFastThetas...) {
			check(n, theta, false)
		}
	}
	check(229376, 0.99, true)
	check(1<<24, 0.9, true)
	check(1e9+7, 0.7, true)
}
