package mask

import "runtime"

// Workers normalizes a worker-count knob: values below 1 mean "use one
// worker per available CPU" (runtime.GOMAXPROCS), and the count is capped
// at the number of independent work items so no goroutine idles.
func Workers(requested, items int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}
