package serve

import (
	"sync"
	"testing"

	"tracon/internal/model"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// Trained libraries are the expensive fixture (a full 8×125 profiling
// sweep per family), so each family is built once per test binary.
var (
	libMu    sync.Mutex
	libCache = map[model.Kind]*model.Library{}
)

// testLibrary returns a library of the given family trained over the
// eight Table 3 benchmarks at seed 1.
func testLibrary(t testing.TB, k model.Kind) *model.Library {
	t.Helper()
	libMu.Lock()
	defer libMu.Unlock()
	if lib, ok := libCache[k]; ok {
		return lib
	}
	host, err := xen.NewHost(xen.DefaultHost())
	if err != nil {
		t.Fatal(err)
	}
	tb := xen.NewTestbed(host, 3, 0.05, 1)
	var bgs []xen.AppSpec
	for _, w := range workload.ProfilingWorkloads(host.Config().Disk) {
		bgs = append(bgs, w.Spec)
	}
	var specs []xen.AppSpec
	for _, b := range workload.Benchmarks() {
		specs = append(specs, b.Spec)
	}
	lib, err := model.BuildLibrary(tb, specs, bgs, k)
	if err != nil {
		t.Fatal(err)
	}
	libCache[k] = lib
	return lib
}

// submitKeyed submits one task carrying a request ID and an idempotency
// key through the single submission path.
func submitKeyed(p *Placer, app, reqID, key string) (*Placement, error) {
	return single(p.SubmitRequests([]SubmitRequest{{App: app, ReqID: reqID, Key: key}}))
}
