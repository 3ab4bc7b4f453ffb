package media

import (
	"math"
	"testing"
)

// TestLoadNsIntegers: every medium's load latency is a whole number of
// nanoseconds. The simulator counts byte-addressable hits per window and
// adds them to the tier's latency histogram in one call (LoadNs × hits),
// which equals adding them one by one only because LoadNs is an integer.
func TestLoadNsIntegers(t *testing.T) {
	if len(properties) != len(Kinds()) {
		t.Fatalf("catalog has %d media, Kinds lists %d", len(properties), len(Kinds()))
	}
	for _, k := range Kinds() {
		if ns := Props(k).LoadNs; ns <= 0 || ns != math.Trunc(ns) {
			t.Errorf("%s: LoadNs = %v, want a positive integer", k.Name(), ns)
		}
	}
}
