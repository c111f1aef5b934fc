package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("windows_total", "Windows processed.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := reg.Counter("windows_total", ""); again != c {
		t.Error("Counter did not return the registered instance")
	}

	g := reg.Gauge("open_tracks", "Tracks open.")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	// Nil handles must be inert: disabled metrics take this path.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	nc.Add(7)
	ng.Set(1)
	ng.Add(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Error("nil metric handles are not inert")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// le=0.01 is inclusive: 0.005 and 0.01 land in bucket 0.
	want := []uint64{2, 1, 1, 1}
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d (%v)", i, c, want[i], snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d, want 5", snap.Count)
	}
	if diff := snap.Sum - (0.005 + 0.01 + 0.05 + 0.5 + 5); diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sum = %v", snap.Sum)
	}
}

// TestHistogramObserveN checks a weighted observation is n observations of
// one value: same buckets, count and sum, and n == 0 records nothing.
func TestHistogramObserveN(t *testing.T) {
	reg := NewRegistry()
	weighted := reg.Histogram("weighted", "", []float64{0.01, 0.1, 1})
	single := reg.Histogram("single", "", []float64{0.01, 0.1, 1})
	for _, s := range []struct {
		v float64
		n uint64
	}{{0.005, 3}, {0.05, 0}, {0.5, 250}, {5, 1}} {
		weighted.ObserveN(s.v, s.n)
		for range s.n {
			single.Observe(s.v)
		}
	}
	w, one := weighted.Snapshot(), single.Snapshot()
	if w.Count != 254 || w.Count != one.Count {
		t.Errorf("count = %d, want 254 (= %d single observations)", w.Count, one.Count)
	}
	for i := range w.Counts {
		if w.Counts[i] != one.Counts[i] {
			t.Errorf("bucket %d = %d, want %d", i, w.Counts[i], one.Counts[i])
		}
	}
	if diff := w.Sum - one.Sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", w.Sum, one.Sum)
	}
	var nh *Histogram
	nh.ObserveN(1, 5)
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x", "")
	reg.Gauge("x", "")
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "A counter.").Add(7)
	reg.Gauge("a_gauge", "A gauge.").Set(2.5)
	h := reg.Histogram("c_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 2.5\n",
		"# HELP b_total A counter.\n# TYPE b_total counter\nb_total 7\n",
		`c_seconds_bucket{le="0.1"} 1`,
		`c_seconds_bucket{le="1"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: gauge a before counter b before histogram c.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") ||
		strings.Index(out, "b_total") > strings.Index(out, "c_seconds") {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n", "").Add(3)
	reg.Histogram("h", "", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
	}
	if decoded["n"].(float64) != 3 {
		t.Errorf("n = %v, want 3", decoded["n"])
	}
	hist := decoded["h"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Errorf("h.count = %v, want 1", hist["count"])
	}
}

func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c", "").Inc()
				reg.Gauge("g", "").Add(1)
				reg.Histogram("h", "", nil).Observe(float64(j) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c", "").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Gauge("g", "").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := reg.Histogram("h", "", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
