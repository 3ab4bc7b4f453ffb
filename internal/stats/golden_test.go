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
	const draws = 1 << 20
	buf := make([]byte, 8*4096)
	for _, n := range []int64{16, 1 << 17, 1 << 21} {
		for _, theta := range []float64{0.5, 0.99} {
			for _, scramble := range []bool{false, true} {
				for _, shift := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/theta=%v/scramble=%v/shift=%v", n, theta, scramble, shift)
					z := NewZipf(NewRNG(uint64(n)^0x7a69), n, theta, scramble)
					if shift {
						z.SetShift(30000, n/64+1)
					}
					h := sha256.New()
					for i := 0; i < draws; i += 4096 {
						if shift && i == draws/2 {
							// Off the old period's grid (2^19 is no multiple
							// of 30000) and onto one that is no divisor of it.
							z.SetShift(777, 5)
						}
						for j := 0; j < 4096; j++ {
							binary.LittleEndian.PutUint64(buf[8*j:], uint64(z.Next()))
						}
						h.Write(buf)
					}
					if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
						t.Errorf("%q: %q,", name, got)
					}
				}
			}
		}
	}
}
