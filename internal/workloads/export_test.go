package workloads

// Drain consumes and discards the whole workload, returning the number
// of accesses.
func Drain(w Workload) int64 {
	var n int64
	for {
		b, ok := w.Next()
		if !ok {
			return n
		}
		n += int64(len(b))
	}
}
