package mem

// SetByteTierCapacity bounds byte-addressable tier id to pages resident
// pages, as Config.DRAMCapacityPages bounds DRAM: for tests that need
// every tier full, NVMM included.
func (m *Manager) SetByteTierCapacity(id TierID, pages int64) {
	m.ba[id].info.CapacityPages = pages
	m.tiers[id].CapacityPages = pages
}
