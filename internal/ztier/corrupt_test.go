package ztier

import (
	"errors"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/zpool"
)

// flippingPool is a pool whose loads come back with one byte of the
// object flipped: what a load reads is not what was stored.
type flippingPool struct{ zpool.Pool }

func (p flippingPool) Load(h zpool.Handle, dst []byte) ([]byte, error) {
	out, err := p.Pool.Load(h, dst)
	if err == nil && len(out) > len(dst) {
		out[len(dst)+(len(out)-len(dst))/2] ^= 0x40
	}
	return out, err
}

// TestCorruptObjectDetected: a stored object with one byte flipped fails
// both ways of loading it — the decoding Load and the raw LoadCompressed
// every product read goes through — with ErrCorruptObject, and a failed
// load counts no fault.
func TestCorruptObjectDetected(t *testing.T) {
	page := corpus.NewGenerator(corpus.Dickens, 1).Page(0, PageSize)
	for _, cfg := range []Config{CT1(), CT2(), Characterization(1)} {
		tier := MustNew(1, cfg)
		h, _, err := tier.Store(page)
		if err != nil || h.SameFilled() {
			t.Fatalf("%s: store: %v (same-filled %v)", tier.Name(), err, h.SameFilled())
		}
		if _, _, _, err := tier.LoadCompressed(h, nil); err != nil {
			t.Fatalf("%s: intact object: %v", tier.Name(), err)
		}
		tier.pool = flippingPool{tier.pool}
		faults := tier.Stats().Faults
		if _, _, err := tier.Load(h, nil); !errors.Is(err, ErrCorruptObject) {
			t.Errorf("%s: Load of a flipped object: err %v, want ErrCorruptObject", tier.Name(), err)
		}
		if _, _, _, err := tier.LoadCompressed(h, nil); !errors.Is(err, ErrCorruptObject) {
			t.Errorf("%s: LoadCompressed of a flipped object: err %v, want ErrCorruptObject", tier.Name(), err)
		}
		if got := tier.Stats().Faults; got != faults {
			t.Errorf("%s: failed loads counted %d faults", tier.Name(), got-faults)
		}
	}
}
