package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); xs is not modified. It is NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPercentile returns the highest reportable percentile for n samples:
// the highest of the usual tail percentiles that still has at least ten
// samples beyond it. With fewer than forty samples there is none, and the
// median stands alone.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct{ p, beyond float64 }{{99.9, 0.001}, {99, 0.01}, {95, 0.05}, {90, 0.10}, {75, 0.25}} {
		if float64(n)*c.beyond >= 10-1e-9 {
			return c.p, true
		}
	}
	return 0, false
}

// samples collects named timings over the repetitions of a workload.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string][]float64{}
	}
	s.m[name] = append(s.m[name], v)
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// checker counts the operations a workload attempted and the ones whose
// result was wrong. Any failure makes the run incorrect.
type checker struct {
	mu       sync.Mutex
	ops      int
	failed   int
	failures []string
}

// ok records n operations whose results were right.
func (c *checker) ok(n int) {
	c.mu.Lock()
	c.ops += n
	c.mu.Unlock()
}

// check records one operation, failed unless cond holds.
func (c *checker) check(cond bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if !cond {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// meter measures what one journey repetition cost the process: CPU time,
// bytes allocated and the peak resident set, between start and stop.
type meter struct {
	cpu0   float64
	alloc0 uint64
	cpu    []float64 // seconds per repetition
	alloc  []float64 // MB per repetition
	rss    []float64 // peak MB per repetition
}

func (m *meter) start() {
	resetPeakRSS()
	m.cpu0, m.alloc0 = cpuSeconds(), totalAlloc()
}

func (m *meter) stop() {
	m.cpu = append(m.cpu, cpuSeconds()-m.cpu0)
	m.alloc = append(m.alloc, float64(totalAlloc()-m.alloc0)/(1<<20))
	m.rss = append(m.rss, peakRSSMB())
}

// stealSeconds is the time the hypervisor has kept the virtual processors
// waiting while they had work: the steal column of /proc/stat, summed over
// the processors. It is 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	const stealField, userHz = 8, 100
	if len(fields) <= stealField || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[stealField], 64)
	return ticks / userHz
}

// grantClock reads the process's CPU clock and the machine's steal clock at
// the start of a stretch of work.
type grantClock struct{ cpu0, steal0 float64 }

func startGrant() grantClock { return grantClock{cpuSeconds(), stealSeconds()} }

// share is the share of the processor time the work since the start asked
// for that it got: it used cpu seconds while the hypervisor withheld steal
// seconds. The journeys keep the process busy from end to end, so a wall
// time multiplied by the share is the time the work would have taken had it
// got what it asked for, whether it ran on one processor or on both. The
// benchmark is the machine's only load, so the machine's steal is its own.
func (g grantClock) share() float64 {
	return grantedShare(cpuSeconds()-g.cpu0, stealSeconds()-g.steal0)
}

func grantedShare(cpu, steal float64) float64 {
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// procField reads one "Key: value" number from a /proc/self file, 0 when
// the file or the key is missing.
func procField(file, key string) int64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(fields[0], 10, 64)
		return n
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// resetPeakRSS lowers the high-water mark to the resident set of the
// moment, so that the next peakRSSMB reads the peak since now: the peak of
// one repetition is a sample the run can take a median of, the peak of the
// whole process is the largest of them and swings with it. A kernel that
// refuses leaves the mark where it was.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// bytesRead is how many bytes the process has read through system calls.
func bytesRead() int64 { return procField("io", "rchar") }

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// timed runs f and returns how long it took in seconds.
func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return since(t), err
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}
