package platform

import "testing"

// TestManyRequestsNoResourceLeak pushes 40 concurrent requests through an
// rmap engine and checks the post-run invariants the coordinator is
// responsible for: no live registrations anywhere, no in-flight buffers,
// and machine memory equal to exactly what the warm containers + shared
// text hold.
func TestManyRequestsNoResourceLeak(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(800), ModeRMMAPPrefetch, Options{},
		ClusterConfig{Machines: 4, Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < 40; i++ {
		e.Submit(func(r RunResult) {
			if r.Err != nil {
				t.Errorf("request failed: %v", r.Err)
			}
			completed++
		})
	}
	e.Cluster.Sim.Run()
	if completed != 40 {
		t.Fatalf("completed %d/40", completed)
	}
	if e.LiveRegistrations() != 0 {
		t.Errorf("coordinator tracks %d registrations", e.LiveRegistrations())
	}
	for i, k := range e.Cluster.Kernels {
		if k.Registrations() != 0 {
			t.Errorf("kernel %d holds %d registrations", i, k.Registrations())
		}
	}
	// Steady-state memory: once every pod is warm (containers + each
	// machine's shared library text), doubling the request count must not
	// grow live memory — the no-leak invariant of container reuse.
	after40 := e.Cluster.LiveBytes()
	for i := 0; i < 40; i++ {
		e.Submit(nil)
	}
	e.Cluster.Sim.Run()
	after80 := e.Cluster.LiveBytes()
	if after80 > after40+after40/10 {
		t.Errorf("live bytes grew %d → %d across reused requests (leak)", after40, after80)
	}
}
