package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The host the benchmark runs on is shared: how fast it runs a fixed piece
// of code drifts by up to a factor of two over minutes, with the load its
// other tenants put on the cores and the memory system. A run's raw pass
// times carry that drift. The calibrator times a fixed kernel of the
// benchmark's own code, none of the program's, before every pass, and the
// end-to-end times are reported in reference seconds: raw time scaled by
// calRefSeconds over the kernel's median time in the same run. A change to
// the program moves them as it moves the raw times; a change in the host's
// speed moves the kernel too and largely cancels.
//
// Which work follows the drift was measured by timing candidate kernels
// between passes of the workloads for minutes. No single kind followed
// every workload: allocation-heavy work (an event loop over a heap of
// freshly allocated events, allocation churn) followed the simulator most
// closely, plain loads and arithmetic did as well on the factory planner.
// The kernel mixes them.
const (
	// calRefSeconds is the kernel's median time on the machine the
	// benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon host,
	// Go 1.24). It only sets the scale of the reference seconds.
	calRefSeconds = 0.023
	// calShare is the share of each pass's time spent calibrating just
	// before it, at least one kernel run per pass.
	calShare = 0.15

	calChaseLen = 1 << 21 // 8 MiB of uint32: past the core's L2
	calChaseOps = 25_000
	calHashOps  = 1_000_000
	calMapLen   = 1 << 16
	calMapOps   = 30_000
	calSortLen  = 1 << 12
	calEvents   = 30_000
	calSources  = 64
	calChurnOps = 100_000
	calRingLen  = 1 << 14
)

// calibrator holds the kernel's data, built once per run outside every
// timing, and the kernel times measured so far.
type calibrator struct {
	chase   []uint32 // one random cycle through every index
	keys    []uint64
	table   map[uint64]uint32
	src     []int
	buf     []int
	ring    [][]byte
	samples []float64
	sink    uint64
}

// newCalibrator builds the kernel's data from a fixed seed, the same on
// every run and every commit.
func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{
		chase: make([]uint32, calChaseLen),
		keys:  make([]uint64, calMapLen),
		table: make(map[uint64]uint32, calMapLen),
		src:   make([]int, calSortLen),
		buf:   make([]int, calSortLen),
		ring:  make([][]byte, calRingLen),
	}
	perm := r.Perm(calChaseLen)
	for i, p := range perm {
		c.chase[p] = uint32(perm[(i+1)%calChaseLen])
	}
	for i := range c.keys {
		c.keys[i] = r.Uint64()
		c.table[c.keys[i]] = uint32(i)
	}
	for i := range c.src {
		c.src[i] = r.Int()
	}
	return c
}

// kernel runs the fixed work once: dependent loads through a working set
// larger than the core's own cache, integer hashing, map lookups, a sort,
// a discrete-event loop and allocation churn, the kinds of work the
// program's simulator and scheduler do. It allocates about 13 MiB.
func (c *calibrator) kernel() time.Duration {
	t0 := time.Now()
	x := uint32(0)
	for i := 0; i < calChaseOps; i++ {
		x = c.chase[x]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < calHashOps; i++ {
		h ^= uint64(i)
		h *= 1099511628211
		if h&7 == 3 {
			h += 17
		}
	}
	var s uint32
	for i := 0; i < calMapOps; i++ {
		s += c.table[c.keys[(i*7919)&(calMapLen-1)]]
	}
	copy(c.buf, c.src)
	sort.Ints(c.buf)
	c.sink += uint64(x) + h + uint64(s) + uint64(c.buf[0]) + uint64(eventLoop())
	for i := 0; i < calChurnOps; i++ {
		c.ring[i&(calRingLen-1)] = make([]byte, 48+i&63)
	}
	return time.Since(t0)
}

// calEvent is one event of the kernel's event loop.
type calEvent struct {
	at      int64
	source  int
	payload []byte
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// eventLoop is a small discrete-event simulation: sources that each
// schedule their next event at a random delay, with a fresh payload per
// event and a per-source counter kept under a string key.
func eventLoop() int {
	r := rand.New(rand.NewSource(3))
	q := &calQueue{}
	for i := 0; i < calSources; i++ {
		heap.Push(q, &calEvent{at: r.Int63n(1000), source: i, payload: make([]byte, 64)})
	}
	seen := map[string]int{}
	for i := 0; i < calEvents; i++ {
		e := heap.Pop(q).(*calEvent)
		seen["s"+strconv.Itoa(e.source)] += len(e.payload)
		heap.Push(q, &calEvent{at: e.at + 1 + r.Int63n(100), source: e.source, payload: make([]byte, 64+e.source)})
	}
	return len(seen)
}

// measure runs the kernel for about calShare of the given pass time, at
// least once, and records each run's time. Each run starts on a collected
// heap, so the collector rarely runs inside it: only when the program's
// live heap is smaller than the kernel's allocations, and then it marks
// that small heap.
func (c *calibrator) measure(pass time.Duration) {
	budget := time.Duration(calShare * float64(pass))
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		runtime.GC()
		c.samples = append(c.samples, c.kernel().Seconds())
	}
}

// scale turns raw seconds of this run into reference seconds.
func (c *calibrator) scale() float64 { return calRefSeconds / median(c.samples) }
