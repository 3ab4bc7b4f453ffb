package compress

import "sort"

// MustLookup is Lookup but panics on unknown names; for the built-in
// codec names.
func MustLookup(name string) Codec {
	c, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the sorted list of registered codec names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ratio compresses src with c and returns compressedSize/originalSize.
func Ratio(c Codec, src []byte) float64 {
	return float64(len(c.Compress(nil, src))) / float64(len(src))
}
