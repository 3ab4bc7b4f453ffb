package workload_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"tierscape/internal/trace"
	"tierscape/internal/workload"
)

// TestKVAccessStreamGolden pins the KV-family access streams bit for bit:
// SHA-256 over the first 2^18 accesses (page as little-endian int64, then a
// write byte), recorded while NextOp still heap-allocated a generator per
// key to hash its index bucket. kv_steady, daemon_multi and every
// Memcached/Redis row of every figure replay these streams.
func TestKVAccessStreamGolden(t *testing.T) {
	const scale = 4096
	ycsb := func(letter byte, seed uint64) workload.Workload {
		y, err := workload.NewYCSB(letter, 50000, 1024, seed)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	want := map[string]string{
		"Redis/YCSB/seed=1":            "ca3af6c47ef8ea534eba71d89d8f4e7de726605e91f802a947efb3389c889862",
		"Memcached/YCSB/seed=1":        "6b7986d74192cf21251585be0bfbf6c84a6431efd0137e350d61d35e39b2d26f",
		"Memcached/memtier-1K/seed=1":  "78a807dddea083498966397f01bed3e3e151e21fd32ae28eee2aba9a90893d33",
		"Memcached/memtier-4K/seed=1":  "89dbd5a522c613b556c0bc2f681685d951f7bf1d20054efa2933ed827d1cf142",
		"YCSB-A/seed=1":                "6c3fbcea7a5ba65bacd13a2f5490b7d874fb5fdb4bca00791e9f2ab9d5628c27",
		"YCSB-B/seed=1":                "3c389a3e7c77da8adb518ae7201af92f0c9971025ff36910d34f86cb2d5c99a2",
		"YCSB-C/seed=1":                "20dc73963b7712ab628c707011e3232c9347f48de014ae72c194b50961209f34",
		"YCSB-D/seed=1":                "020224de7df15bd9352c08688db867714dc479c8d910c92a765e0e9c315a414d",
		"YCSB-E/seed=1":                "b56819ee7c4eb79cc921ef1e282dde3afc0321c2868fbebc71a2bd384765be59",
		"YCSB-F/seed=1":                "79599d718a6830cb95a3485b6ac02ad12553630d9461f83f4ae3e6608576a0ba",
		"Redis/YCSB/seed=42":           "b452b2999b8be901196048de2b0fab8d06696e88a1bced0b1f04a262f6e8341f",
		"Memcached/YCSB/seed=42":       "ac0efbe3391f0c79f47b42558b17100583783f45d053430d08fe67414ed6c7cb",
		"Memcached/memtier-1K/seed=42": "93650a2f3e7f525f52b9a94646d2dcc382fde2c2eb02c6e367bb4d1d83ae7857",
		"Memcached/memtier-4K/seed=42": "d677362bdb5372d51bcd92de5ac79ebd810e83c6696f0898a73bbbe863ff803f",
		"YCSB-A/seed=42":               "0e34f82086ddf63c9a126461a5d2e6f86a0b97ac243ef2b6c7ab8330af5384c9",
		"YCSB-B/seed=42":               "fe7873be54d247f917c0d7a54455f096d83113884a450369a6cc3585d5281921",
		"YCSB-C/seed=42":               "e42fa787f9cf05aa672539a978a18e168a8c82ae0cc194b621bbe1e25e8967ec",
		"YCSB-D/seed=42":               "f52881044c063ce0350713ee4f75e3edc968b354dcda9b5852f478395df42710",
		"YCSB-E/seed=42":               "86eb79e192a62e00bbdda57629c285b294bdd088305039d14a38df20063e8ffc",
		"YCSB-F/seed=42":               "e5f2f5a26c147b2f6595f08e9e530d8033e51eed5b54c0fa02954c0ae5a900a4",
	}
	hash := func(wl workload.Workload) (string, int) {
		h := sha256.New()
		var buf []workload.Access
		var rec [9]byte
		ops := 0
		for n := 0; n < 1<<18; ops++ {
			buf = wl.NextOp(buf[:0])
			for _, a := range buf {
				if n == 1<<18 {
					break
				}
				binary.LittleEndian.PutUint64(rec[:], uint64(a.Page))
				rec[8] = 0
				if a.Write {
					rec[8] = 1
				}
				h.Write(rec[:])
				n++
			}
		}
		return hex.EncodeToString(h.Sum(nil)), ops
	}
	for _, seed := range []uint64{1, 0x2a} {
		wls := func() []workload.Workload {
			wls := []workload.Workload{
				workload.Redis(scale, seed),
				workload.Memcached(workload.DriverYCSB, 1024, scale, seed),
				workload.Memcached(workload.DriverMemtier, 1024, scale, seed),
				workload.Memcached(workload.DriverMemtier, 4096, scale, seed),
			}
			for _, l := range []byte("ABCDEF") {
				wls = append(wls, ycsb(l, seed))
			}
			return wls
		}
		srcs := wls()
		for i, wl := range wls() {
			name := fmt.Sprintf("%s/seed=%d", wl.Name(), seed)
			got, ops := hash(wl)
			if got != want[name] {
				t.Errorf("%q: %q,", name, got)
			}
			if replayed, _ := hash(recordAll(t, srcs[i], ops)); replayed != got {
				t.Errorf("%s: record→replay hash %s, live %s", name, replayed, got)
			}
		}
	}
}

// recordAll records ops operations of src as a trace and returns the
// replay of it, positioned at the first op.
func recordAll(t *testing.T, src workload.Workload, ops int) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, src, int64(ops)); err != nil {
		t.Fatalf("%s (%d pages): %v", src.Name(), src.NumPages(), err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNextOpAllocsPerRun: drawing a KV or YCSB op into a warmed buffer
// allocates nothing — the index-bucket hash runs on a generator on the
// stack. One allocation per op here is one per simulated op of every
// KV-driven run.
func TestNextOpAllocsPerRun(t *testing.T) {
	wls := []workload.Workload{
		workload.Redis(4096, 1),
		workload.Memcached(workload.DriverYCSB, 1024, 4096, 1),
		workload.Memcached(workload.DriverMemtier, 4096, 4096, 1),
	}
	for _, l := range []byte("ABCDEF") {
		y, err := workload.NewYCSB(l, 50000, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, y)
	}
	for _, wl := range wls {
		buf := make([]workload.Access, 0, 128) // a YCSB-E scan is at most 101 accesses
		if n := testing.AllocsPerRun(2000, func() { buf = wl.NextOp(buf[:0]) }); n != 0 {
			t.Errorf("%s: %v allocations per NextOp, want 0", wl.Name(), n)
		}
	}
}

// TestAccessStreamGolden pins the access streams of the workloads the KV
// golden does not cover — five of Figure 7's eight — bit for bit: SHA-256
// over the first 2^18 accesses (page as little-endian int64, a write byte)
// with a 0xFF byte closing every op, so an access that moves from one op
// to the next changes the hash too. Recorded before XSBench's binary
// search lost its branches and NewRMat its second PCG output per draw.
func TestAccessStreamGolden(t *testing.T) {
	ycsb := func(capacity, valueSize int64) workload.Workload {
		y, err := workload.NewYCSB('A', capacity, valueSize, 7)
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	type goldenCase struct {
		name string
		wl   workload.Workload
		want string
	}
	cases := func() []goldenCase {
		return []goldenCase{
			{"XSBench/2048", workload.NewXSBench(2048, 7), "086769a1fdbf8fc38eea032cd1c7d979f788830d6cead59099fdb25544bc1049"},
			{"XSBench/16384", workload.NewXSBench(16384, 42), "4ad133cb5e0e6a23e867134705a85b3ad9e7cd3d45a65e47a0dacd75857a1991"},
			{"BFS/4096", workload.NewBFS(1<<12, 8, 7), "545610639958ba40778066b9b7366c2a73031fe499770788f2f8aa0dadb3548b"},
			{"BFS/65536", workload.NewBFS(1<<16, 8, 42), "a912c189016b782f803194b61ede3c490a21e220e13a2b486b2a0131af9e52ef"},
			{"PageRank/4096", workload.NewPageRank(1<<12, 8, 7), "822caf6cb58b55cdaae14ede79a229989e66e51f4fad62bae46d4a4a6ceead50"},
			{"PageRank/65536", workload.NewPageRank(1<<16, 8, 42), "150faf65db0b409cfe9b27810fd43183905f06479991de3e1b5c79d4deb090e4"},
			{"GraphSAGE/1024", workload.NewGraphSAGE(1024, 7), "9ac759c1cd6c66be4c88520cb8944a374764fb4226a19e0f9323bd0a1f4c345e"},
			{"GraphSAGE/3072", workload.NewGraphSAGE(3072, 42), "07d26f70ce4e11988a852ca29a58a0f2c4d300c588553735ca8f6800cebda766"},
			{"masim/512", workload.DefaultMasim(512, 5000, 7), "15d81d692a6d66b59e222997731834ad1f63f3ab0ae3346887556506795b1763"},
			{"masim/1024", workload.DefaultMasim(1024, 20000, 42), "f47d8a7375135fa99d09120695ef88630e4dd12664f422ec78ad953f9d3b24f1"},
			{"YCSB-A/20000x256", ycsb(20000, 256), "27448631a38acbb2709467ab0d5668079a700037c1e4eb4b8e2ecd7e77bbb76d"},
			{"YCSB-A/200000x1024", ycsb(200000, 1024), "34e9238bfd2b6b25be8d5e8d8530cf4531549e2cc41f0d0557812949c13728a6"},
		}
	}
	srcs := cases()
	for i, c := range cases() {
		got, ops := opStreamHash(c.wl, false)
		if got != c.want {
			t.Errorf("%q: %q,", c.name, got)
		}
		if replayed, _ := opStreamHash(recordAll(t, srcs[i].wl, ops), false); replayed != got {
			t.Errorf("%s: record→replay hash %s, live %s", c.name, replayed, got)
		}
	}
}

// opStreamHash is SHA-256 over wl's ops until they hold 2^18 accesses:
// each access's page as little-endian int64 and a write byte, a 0xFF byte
// closing every op — followed, when withBase, by BaseOpNs's float64 bits
// read after the op. It returns the hash and how many ops it took.
func opStreamHash(wl workload.Workload, withBase bool) (string, int) {
	h := sha256.New()
	var buf []workload.Access
	var rec [9]byte
	ops := 0
	for n := 0; n < 1<<18; ops++ {
		buf = wl.NextOp(buf[:0])
		for _, a := range buf {
			binary.LittleEndian.PutUint64(rec[:], uint64(a.Page))
			rec[8] = 0
			if a.Write {
				rec[8] = 1
			}
			h.Write(rec[:])
			n++
		}
		h.Write([]byte{0xFF})
		if withBase {
			binary.LittleEndian.PutUint64(rec[:], math.Float64bits(wl.BaseOpNs()))
			h.Write(rec[:8])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), ops
}

// TestColocatedStreamGolden pins a Colocated stream — accesses and the
// per-op BaseOpNs, which alternates between the tenants' — live and
// through record→replay, the one stream whose trace stores a BaseOpNs on
// every op.
func TestColocatedStreamGolden(t *testing.T) {
	mk := func() workload.Workload {
		return workload.Colocate(workload.Memcached(workload.DriverMemtier, 1024, 4096, 7), workload.NewPageRank(1<<12, 8, 7))
	}
	const want = "8c8d151b71fe762c9345c8a779debe562e37fb0180fc522520867493b5ab3ac8"
	got, ops := opStreamHash(mk(), true)
	if got != want {
		t.Errorf("live: %q", got)
	}
	if replayed, _ := opStreamHash(recordAll(t, mk(), ops), true); replayed != got {
		t.Errorf("record→replay hash %s, live %s", replayed, got)
	}
}
