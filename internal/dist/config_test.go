package dist

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/taskrt"
)

// TestRankPathCoversConfig: every core.Config field is either honoured on
// the rank path or rejected by name by NewCG, so a field added to
// core.Config fails here until someone classifies it.
func TestRankPathCoversConfig(t *testing.T) {
	honoured := map[string]bool{
		"Method": true, "Workers": true, "PageDoubles": true, "Tol": true, "MaxIter": true,
		"UsePrecond": true, "CheckpointInterval": true, "OnIteration": true, "RT": true,
		"Blocks": true, "Cancelled": true, "TaskPriority": true,
	}
	a, b := distSystem()
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if honoured[f.Name] {
			continue
		}
		cfg := baseCfg(core.MethodFEIR)
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		case reflect.Func:
			v.Set(reflect.MakeFunc(f.Type, func([]reflect.Value) []reflect.Value {
				panic("never called")
			}))
		default:
			t.Fatalf("core.Config.%s (%s): the test cannot set this kind", f.Name, f.Type)
		}
		if _, err := NewCG(a, b, 2, cfg); err == nil || !strings.Contains(err.Error(), f.Name) {
			t.Errorf("NewCG with core.Config.%s set: %v; want it honoured or an error naming it", f.Name, err)
		}
	}
}

// TestRankPriority: a ranked solve's rank tasks run at its TaskPriority.
// With every thread that could run a task held, the first superstep of a
// solve at tier −5 and then that of a solve at tier +5 are queued on one
// shared pool; the one thread released then runs the +5 solve's rank
// bodies first, although its superstep was queued last.
func TestRankPriority(t *testing.T) {
	// Two processors at least, so a submission rouses the pool's worker.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	pool := taskrt.New(1)
	defer pool.Close()
	a, b := distSystem()

	// hold submits a task above both tiers that blocks the thread which
	// pops it until free closes its channel.
	started := make(chan struct{}, 3)
	var release []chan struct{}
	freed := 0
	free := func(n int) {
		for ; freed < n; freed++ {
			close(release[freed])
		}
	}
	hold := func() {
		ch := make(chan struct{})
		release = append(release, ch)
		pool.Submit(taskrt.TaskSpec{Label: "hold", Priority: 10, Run: func(int) { started <- struct{}{}; <-ch }})
	}
	var solves sync.WaitGroup
	defer func() { free(len(release)); solves.Wait() }()
	timeout := time.After(10 * time.Second)
	wait := func(what string) {
		select {
		case <-started:
		case <-timeout:
			t.Fatalf("timed out waiting for %s to be held", what)
		}
	}

	hold()
	wait("the worker")
	ran := make(chan int, 4)
	for _, tier := range []int{-5, 5} {
		cfg := baseCfg(core.MethodFEIR)
		cfg.RT, cfg.TaskPriority = pool, tier
		s, err := NewCG(a, b, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The coordinator queues its rank tasks, then helps: it pops this
		// hold, the one task above them, and is held too.
		hold()
		solves.Add(1)
		go func() {
			defer solves.Done()
			s.sub.ForEachRank("probe", func(*shard.Rank) { ran <- tier })
		}()
		wait("the coordinator")
	}

	free(1) // the worker alone runs both supersteps
	var order []int
	for len(order) < 4 {
		select {
		case tier := <-ran:
			order = append(order, tier)
		case <-timeout:
			t.Fatalf("rank bodies ran at tiers %v, then none", order)
		}
	}
	if want := []int{5, 5, -5, -5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("rank bodies ran at tiers %v, want %v", order, want)
	}
}
