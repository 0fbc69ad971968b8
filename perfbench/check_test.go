package main

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/sim"
)

// runUnit runs and checks one unit the way measure does.
func runUnit(w workload, i int) error {
	out, err := w.unit(i, nil, nil)
	if err == nil {
		err = w.check(i, out)
	}
	return err
}

func TestFleetCountsADivergentResultAsFailed(t *testing.T) {
	f := newFleet(sim.SmallScenario(), 1)
	if _, err := f.setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := runUnit(f, i); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
	f.digest[0] ^= 1
	if err := runUnit(f, 2); err == nil {
		t.Error("a unit whose digest differs from the first unit's passed the check")
	}
}

func TestReplayCountsAReportOffTheGoldenAsFailed(t *testing.T) {
	root := ".."
	golden := filepath.Join(root, "internal", "scenario", "testdata", "golden", "replay-pinned.txt")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(t.TempDir(), "replay-pinned.txt")
	if err := os.WriteFile(corrupt, append([]byte("x"), want[1:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		fail   bool
	}{{golden, false}, {corrupt, true}} {
		r := &replay{specPath: filepath.Join(root, "examples", "scenarios", "replay-pinned.json"), goldenPath: c.golden}
		if _, err := r.setup(); err != nil {
			t.Fatal(err)
		}
		if err := runUnit(r, 0); (err != nil) != c.fail {
			t.Errorf("golden %s: check error %v, want failure %v", c.golden, err, c.fail)
		}
	}
}

func TestDaemonCountsAWrongReportAsFailed(t *testing.T) {
	d := newDaemonWhatIf("..", 7)
	defer d.close()
	if _, err := d.setup(); err != nil {
		t.Fatal(err)
	}
	var hot, fresh []int
	for i := 0; len(hot) < 2 || len(fresh) < 2; i++ {
		if _, k := d.jobSpec(i); k >= 0 {
			hot = append(hot, i)
		} else {
			fresh = append(fresh, i)
		}
	}
	for _, i := range []int{hot[0], fresh[0]} {
		if err := runUnit(d, i); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if failed, err := d.verify(); err != nil || failed != 0 {
		t.Fatalf("verify of correct jobs: %d failed, %v", failed, err)
	}

	_, k := d.jobSpec(hot[1])
	d.hotExp[k] = append([]byte("x"), d.hotExp[k]...)
	if err := runUnit(d, hot[1]); err == nil {
		t.Error("a hot job whose expected report is corrupted passed the check")
	}
	if err := runUnit(d, fresh[1]); err != nil {
		t.Fatal(err)
	}
	d.pending[fresh[1]] = append(d.pending[fresh[1]], 'x')
	if failed, err := d.verify(); err != nil || failed != 1 {
		t.Errorf("verify with one corrupted fresh report: %d failed (%v), want 1", failed, err)
	}
}

// indexLog is a workload that records the unit indices it is given.
type indexLog struct {
	mu   sync.Mutex
	seen map[int]int
}

func (l *indexLog) clients() int                  { return 2 }
func (l *indexLog) setup() (time.Duration, error) { return 0, nil }
func (l *indexLog) check(int, any) error          { return nil }
func (l *indexLog) verify() (int, error)          { return 0, nil }
func (l *indexLog) results() []*sim.Result        { return nil }
func (l *indexLog) close()                        {}
func (l *indexLog) unit(i int, _ *tracer, _ *spanLog) (any, error) {
	time.Sleep(time.Millisecond)
	l.mu.Lock()
	l.seen[i]++
	l.mu.Unlock()
	return nil, nil
}

func TestPhasesNeverRepeatAUnitIndex(t *testing.T) {
	l := &indexLog{seen: map[int]int{}}
	warm := measure(l, 0, 0, nil, io.Discard)
	if warm.attempted != l.clients() {
		t.Fatalf("warm-up ran %d units, want one per client (%d)", warm.attempted, l.clients())
	}
	ph := measure(l, warm.attempted, 20*time.Millisecond, nil, io.Discard)
	n := warm.attempted + ph.attempted
	for i := 0; i < n; i++ {
		if l.seen[i] != 1 {
			t.Errorf("unit %d ran %d times, want once", i, l.seen[i])
		}
	}
	if len(l.seen) != n {
		t.Errorf("%d distinct indices over %d units", len(l.seen), n)
	}
}
