package mem

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"tierscape/internal/corpus"
	"tierscape/internal/zpool"
	"tierscape/internal/ztier"
)

// misdirect points the page-table entries of p and q at each other's pool
// objects, each keeping its own size and checksum: an entry whose handle
// names another page's intact object, as a pool handing out a stale
// handle would leave it. Decoding such an object succeeds; only the
// checksum taken at store tells it from the page's own.
func misdirect(t *testing.T, m *Manager, p, q PageID) {
	t.Helper()
	if f := reflect.TypeOf(ztier.Handle{}).Field(0); f.Name != "pool" || f.Type != reflect.TypeOf(zpool.Handle(0)) {
		t.Fatalf("ztier.Handle's first field is %s %v, not the pool handle", f.Name, f.Type)
	}
	a := (*zpool.Handle)(unsafe.Pointer(&m.ptes[p].handle))
	b := (*zpool.Handle)(unsafe.Pointer(&m.ptes[q].handle))
	*a, *b = *b, *a
}

// TestCorruptObjectDetected: a page whose entry names another page's
// object in the same tier fails a fault, a same-codec move, a cross-codec
// move and a promotion with an error wrapping ztier.ErrCorruptObject, and
// each leaves the page's entry as it was.
func TestCorruptObjectDetected(t *testing.T) {
	// Tier IDs: DRAM 0, C1 1, C2 2 (one codec), CT-1 3, CT-2 4.
	tiers := []ztier.Config{ztier.Characterization(1), ztier.Characterization(2), ztier.CT1(), ztier.CT2()}
	for _, c := range []struct {
		name    string
		src     TierID
		operate func(m *Manager, p PageID) error
	}{
		{"fault", 3, func(m *Manager, p PageID) error {
			_, err := m.Access(p, false)
			return err
		}},
		{"C1 to C2, same codec", 1, func(m *Manager, p PageID) error {
			_, err := m.MigratePage(p, 2)
			return err
		}},
		{"CT-1 to CT-2", 3, func(m *Manager, p PageID) error {
			_, err := m.MigratePage(p, 4)
			return err
		}},
		{"CT-2 to DRAM", 4, func(m *Manager, p PageID) error {
			_, err := m.MigratePage(p, DRAMTier)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewManager(Config{
				NumPages:        RegionPages,
				Content:         corpus.NewGenerator(corpus.Dickens, 7),
				CompressedTiers: tiers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.MigrateRegion(0, c.src); err != nil {
				t.Fatal(err)
			}
			var held []PageID
			for p := PageID(0); p < RegionPages && len(held) < 2; p++ {
				if TierID(m.loc[p]) == c.src && !m.ptes[p].handle.SameFilled() {
					held = append(held, p)
				}
			}
			if len(held) < 2 {
				t.Fatalf("%d pages with a pool object in tier %d, want 2", len(held), c.src)
			}
			p, q := held[0], held[1]
			misdirect(t, m, p, q)
			before, beforeTier := m.ptes[p], m.loc[p]
			if err := c.operate(m, p); !errors.Is(err, ztier.ErrCorruptObject) {
				t.Errorf("page %d holding page %d's object: err %v, want ErrCorruptObject", p, q, err)
			}
			if m.ptes[p] != before || m.loc[p] != beforeTier {
				t.Errorf("page %d's entry changed on a failed operation: %+v in tier %d, was %+v in tier %d", p, m.ptes[p], m.loc[p], before, beforeTier)
			}
		})
	}
}
