package daemon

// StepN delivers n ticks and returns how many were received.
func (c *FakeClock) StepN(n int) int {
	for i := 0; i < n; i++ {
		if !c.Step() {
			return i
		}
	}
	return n
}
