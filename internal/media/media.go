// Package media models the physical memory technologies that back
// TierScape's byte-addressable and compressed tiers: DRAM, Optane-style
// NVMM, and CXL-attached DRAM. A medium contributes two things to the
// system model:
//
//   - access latency — a fixed per-access cost plus a per-KB transfer cost
//     (the simulator's virtual clock charges these; see internal/sim), and
//   - unit cost — relative $/GB, which the TCO model (internal/tco)
//     multiplies by each tier's physical footprint.
//
// Latency constants follow the paper's characterization (§5: "accessing a
// page out of DRAM has an average latency of ≈33ns"; Optane loads are
// several times slower and its cost per GB is 1/3–1/2 of DRAM [45]).
package media

import "fmt"

// Kind identifies a memory medium.
type Kind int

// Supported media.
const (
	DRAM Kind = iota
	NVMM      // Optane DC PMM in flat (volatile) mode
	CXL       // CXL-attached DRAM expander
)

// String returns the medium's short name as used in tier encodings
// ("DR", "OP", "CX").
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DR"
	case NVMM:
		return "OP"
	case CXL:
		return "CX"
	default:
		return "??"
	}
}

// Name returns the medium's full name.
func (k Kind) Name() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVMM:
		return "NVMM"
	case CXL:
		return "CXL"
	default:
		return "unknown"
	}
}

// Kinds lists all supported media.
func Kinds() []Kind { return []Kind{DRAM, NVMM, CXL} }

// Properties describes a medium's performance and cost model.
type Properties struct {
	Kind Kind
	// LoadNs is the latency of one CPU load (a page access) in nanoseconds.
	LoadNs float64
	// ReadNsPerKB is the additional cost of streaming one KB out of the
	// medium (used when a compressed object is fetched for decompression).
	ReadNsPerKB float64
	// WriteNsPerKB is the cost of streaming one KB into the medium.
	WriteNsPerKB float64
	// CostPerGB is the relative unit cost; DRAM is 1.0 by definition.
	CostPerGB float64
}

var properties = map[Kind]Properties{
	DRAM: {Kind: DRAM, LoadNs: 33, ReadNsPerKB: 15, WriteNsPerKB: 15, CostPerGB: 1.0},
	// Optane: ~3x-10x DRAM load latency (350ns random load), 1/3 DRAM $/GB [45].
	NVMM: {Kind: NVMM, LoadNs: 350, ReadNsPerKB: 60, WriteNsPerKB: 140, CostPerGB: 1.0 / 3.0},
	// CXL-attached DRAM: one hop over the link, ~half DRAM $/GB in pooled
	// deployments (Pond-style economics).
	CXL: {Kind: CXL, LoadNs: 170, ReadNsPerKB: 30, WriteNsPerKB: 30, CostPerGB: 0.5},
}

// Props returns the properties of medium k. It panics on unknown media,
// which would be a programming error.
func Props(k Kind) Properties {
	p, ok := properties[k]
	if !ok {
		panic(fmt.Sprintf("media: unknown kind %d", int(k)))
	}
	return p
}

// ParseKind maps both short ("DR") and full ("DRAM") names to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "DR", "DRAM", "dram":
		return DRAM, nil
	case "OP", "NVMM", "nvmm", "optane", "Optane":
		return NVMM, nil
	case "CX", "CXL", "cxl":
		return CXL, nil
	default:
		return 0, fmt.Errorf("media: unknown medium %q", s)
	}
}

// UnmarshalText parses a medium's name as ParseKind does, so a tier file
// names its media in JSON.
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseKind(string(b))
	return err
}

// ReadCostNs returns the time to fetch size bytes from medium k, including
// the fixed access latency.
func ReadCostNs(k Kind, size int) float64 {
	p := Props(k)
	return p.LoadNs + p.ReadNsPerKB*float64(size)/1024
}

// WriteCostNs returns the time to store size bytes into medium k.
func WriteCostNs(k Kind, size int) float64 {
	p := Props(k)
	return p.LoadNs + p.WriteNsPerKB*float64(size)/1024
}
