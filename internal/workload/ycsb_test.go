package workload

import (
	"testing"

	"tierscape/internal/mem"
)

func ycsb(t *testing.T, letter byte) *YCSB {
	t.Helper()
	y, err := NewYCSB(letter, 8192, 1024, 7)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestYCSBAllLettersValid(t *testing.T) {
	for _, l := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		y := ycsb(t, l)
		var buf []Access
		for i := 0; i < 2000; i++ {
			buf = y.NextOp(buf[:0])
			if len(buf) == 0 {
				t.Fatalf("%s: empty op", y.Name())
			}
			for _, a := range buf {
				if a.Page < 0 || a.Page >= mem.PageID(y.NumPages()) {
					t.Fatalf("%s: page %d out of range", y.Name(), a.Page)
				}
			}
		}
	}
}

func TestYCSBRejectsBadConfig(t *testing.T) {
	if _, err := NewYCSB('Z', 1000, 1024, 1); err == nil {
		t.Error("letter Z accepted")
	}
	if _, err := NewYCSB('A', 4, 1024, 1); err == nil {
		t.Error("tiny capacity accepted")
	}
	if _, err := NewYCSB('A', 1000, 8192, 1); err == nil {
		t.Error("value larger than page accepted")
	}
}

func writeFraction(t *testing.T, y *YCSB, ops int) float64 {
	t.Helper()
	var buf []Access
	writes, total := 0, 0
	for i := 0; i < ops; i++ {
		buf = y.NextOp(buf[:0])
		w := false
		for _, a := range buf {
			if a.Write {
				w = true
			}
		}
		total++
		if w {
			writes++
		}
	}
	return float64(writes) / float64(total)
}

func TestYCSBWriteMixes(t *testing.T) {
	cases := []struct {
		letter byte
		lo, hi float64
	}{
		{'A', 0.45, 0.55},
		{'B', 0.03, 0.08},
		{'C', 0, 0},
		{'D', 0.03, 0.08},
		{'F', 0.45, 0.55},
	}
	for _, c := range cases {
		frac := writeFraction(t, ycsb(t, c.letter), 5000)
		if frac < c.lo || frac > c.hi {
			t.Errorf("YCSB-%s write-op fraction %v outside [%v,%v]",
				string(c.letter), frac, c.lo, c.hi)
		}
	}
}

func TestYCSBDInsertsGrowAndLatestSkew(t *testing.T) {
	y := ycsb(t, 'D')
	before := y.inserted
	var buf []Access
	for i := 0; i < 20000; i++ {
		buf = y.NextOp(buf[:0])
	}
	if y.inserted <= before {
		t.Fatalf("YCSB-D never grew: %d -> %d", before, y.inserted)
	}
	// Latest skew: reads should concentrate near the newest keys' value
	// pages. Sample reads and check mean distance from the frontier.
	newestKey := (y.nextInsert - 1) % y.keys
	newestPage := y.valuePage(newestKey)
	near, far := 0, 0
	for i := 0; i < 5000; i++ {
		buf = y.NextOp(buf[:0])
		for _, a := range buf {
			if a.Write || a.Page < mem.PageID(y.indexPages) {
				continue
			}
			d := int64(a.Page) - int64(newestPage)
			if d < 0 {
				d = -d
			}
			if d < y.keys/y.valPerPage/10 {
				near++
			} else {
				far++
			}
		}
	}
	if near <= far {
		t.Fatalf("latest distribution not skewed to recent keys: near=%d far=%d", near, far)
	}
}

func TestYCSBEScansAreSequential(t *testing.T) {
	y := ycsb(t, 'E')
	var buf []Access
	foundScan := false
	for i := 0; i < 200 && !foundScan; i++ {
		buf = y.NextOp(buf[:0])
		if len(buf) < 4 {
			continue
		}
		// Value pages after the index access must be consecutive.
		seq := true
		for j := 2; j < len(buf); j++ {
			if buf[j].Page != buf[j-1].Page+1 {
				seq = false
				break
			}
		}
		if seq {
			foundScan = true
		}
	}
	if !foundScan {
		t.Fatal("no sequential scan observed in YCSB-E")
	}
}

func TestYCSBFDoesReadModifyWrite(t *testing.T) {
	y := ycsb(t, 'F')
	var buf []Access
	foundRMW := false
	for i := 0; i < 200; i++ {
		buf = y.NextOp(buf[:0])
		// RMW = read access and write access to the same value page.
		for j := range buf {
			if !buf[j].Write {
				continue
			}
			for k := range buf {
				if k != j && !buf[k].Write && buf[k].Page == buf[j].Page {
					foundRMW = true
				}
			}
		}
	}
	if !foundRMW {
		t.Fatal("no read-modify-write pattern observed in YCSB-F")
	}
}

func TestYCSBInsertWrapsAtCapacity(t *testing.T) {
	y, err := NewYCSB('D', 64, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf []Access
	for i := 0; i < 50000; i++ {
		buf = y.NextOp(buf[:0])
	}
	if y.inserted != 64 {
		t.Fatalf("live keys = %d, want capacity 64", y.inserted)
	}
	// Accesses must stay in range even after wrapping.
	for i := 0; i < 1000; i++ {
		buf = y.NextOp(buf[:0])
		for _, a := range buf {
			if a.Page < 0 || a.Page >= mem.PageID(y.NumPages()) {
				t.Fatalf("page %d out of range after wrap", a.Page)
			}
		}
	}
}
