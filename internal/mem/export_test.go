package mem

// TierOf returns the tier currently holding page p.
func (m *Manager) TierOf(p PageID) TierID {
	mu := m.spanLock(p)
	mu.RLock()
	defer mu.RUnlock()
	return TierID(m.loc[p])
}

// MigratePage moves page p to tier dest. Compressed-to-compressed moves
// take the naive decompress-recompress path (§7.1) unless the codecs
// match; the page to recompress is regenerated, not decoded.
// Incompressible pages stay where they are and count as rejected.
func (m *Manager) MigratePage(p PageID, dest TierID) (MigrationResult, error) {
	if p < 0 || p >= PageID(m.numPages) {
		return MigrationResult{}, ErrBadPage
	}
	if int(dest) < 0 || int(dest) >= len(m.tiers) {
		return MigrationResult{}, ErrNoSuchTier
	}
	mu := m.spanLock(p)
	mu.Lock()
	defer mu.Unlock()
	sc := new(MigrationScratch)
	var slab []byte
	pp, err := m.preparePage(p, dest, sc, &slab)
	if err != nil {
		return MigrationResult{}, err
	}
	return m.commitPage(pp, sc, &slab)
}

// Remaining returns how many prepared pages have not committed yet: all of
// them until the region is consumed, none after.
func (pr *PreparedRegion) Remaining() int { return len(pr.pages) }

// PrepareRegionMigrationScratch is PrepareRegionMigration on the caller's
// scratch, for tests that watch what a whole region's prepare keeps there.
func (m *Manager) PrepareRegionMigrationScratch(r RegionID, dest TierID, sc *MigrationScratch) (*PreparedRegion, error) {
	start, end := m.RegionSpan(r)
	return m.preparePages(r, start, end, dest, sc)
}

// recycled returns the consumed region the scratch would hand out next,
// or nil when it holds none.
func (s *MigrationScratch) recycled() *PreparedRegion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == 0 {
		return nil
	}
	return s.free[len(s.free)-1]
}
