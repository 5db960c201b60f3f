package imaging

// resetMemo empties the Step 2N memo and zeroes its counters, so a test
// can tell a miss from a hit whatever ran before it.
func resetMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.entries = make(map[memoKey][]float64)
	memo.stats = MemoStats{}
}
