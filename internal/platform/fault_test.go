package platform

import (
	"errors"
	"testing"

	"rmmap/internal/faults"
	"rmmap/internal/objrt"
	"rmmap/internal/simtime"
)

// Fault injection: coordinator failure and lease-based reclamation (§4.2).

// coordDownEngine builds the pipeline on a chaos cluster whose coordinator
// crashes just after submission and never recovers: finished states are
// never explicitly deregistered, so only the pods' lease scanners (when
// maxRegLifetime is set) can reclaim registered memory.
func coordDownEngine(t *testing.T) *Engine {
	t.Helper()
	plan := faults.Plan{CoordCrashes: []faults.CoordCrash{{At: 1}}}
	cl := NewChaosCluster(3, simtime.DefaultCostModel(), plan, faults.DefaultRetryPolicy())
	e, err := NewEngineOn(cl, pipelineWorkflow(500), ModeRMMAP, Options{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLeaseScanReclaimsAfterCoordinatorFailure(t *testing.T) {
	e := coordDownEngine(t)
	e.maxRegLifetime = 200 * simtime.Millisecond
	// Run() drains the simulator: with the coordinator down, the run only
	// finishes once the pods' lease scanners have swept the orphaned
	// registrations (maximum lifetime + grace).
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Coordinator().Down() {
		t.Fatal("coordinator recovered without a RecoverAt")
	}
	for i, k := range e.Cluster.Kernels {
		if k.Registrations() != 0 {
			t.Errorf("kernel %d: %d registrations survived lease scan", i, k.Registrations())
		}
	}
	// The scan, not the coordinator, did the reclaiming — the negative
	// control below shows the leak without scanners.
}

func TestNoLeaseScanLeaksWithoutCoordinator(t *testing.T) {
	// Negative control: with the coordinator down and no lease scanner,
	// registered memory leaks — demonstrating why §4.2 needs the scan.
	e := coordDownEngine(t)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	leaked := 0
	for _, k := range e.Cluster.Kernels {
		leaked += k.Registrations()
	}
	if leaked == 0 {
		t.Error("expected leaked registrations without lease scan")
	}
}

func TestBufferFramesReleased(t *testing.T) {
	// Message buffers occupy frames only while a state is in flight: a
	// ~2 MB serialized list must show up in the peak but not survive
	// the run. Two stages only, so no later container creation masks the
	// released buffer in the high-water mark.
	wf := &Workflow{
		Name: "buf",
		Functions: []*FunctionSpec{
			{Name: "produce", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				return ctx.RT.NewIntList(make([]int64, 60000))
			}},
			{Name: "sink", Instances: 1, Handler: func(ctx *Ctx) (objrt.Obj, error) {
				n, err := ctx.Inputs[0].Len()
				ctx.Report(n)
				return objrt.Obj{}, err
			}},
		},
		Edges: []Edge{{"produce", "sink"}},
	}
	e, err := NewEngine(wf, ModeMessaging, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	live := e.Cluster.LiveBytes()
	peak := e.Cluster.PeakBytes()
	if peak-live < 1<<20 {
		t.Errorf("peak %d vs live %d: in-flight buffer not visible in peak", peak, live)
	}
}

func TestHandlerErrorFailsRequestCleanly(t *testing.T) {
	wf := pipelineWorkflow(100)
	wf.Function("transform").Handler = func(ctx *Ctx) (objrt.Obj, error) {
		return objrt.Obj{}, errors.New("boom")
	}
	e, err := NewEngine(wf, ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil {
		t.Fatal("handler error not propagated")
	}
	// The cluster is still usable: submit a healthy request.
	e2, err := NewEngine(pipelineWorkflow(100), ModeRMMAP, Options{}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Errorf("healthy run after failure: %v", err)
	}
}
