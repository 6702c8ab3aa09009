package service

import (
	"fmt"
	"sync"

	"joinopt"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
)

// Registry constructs Tasks once per workload spec and shares them across
// every request: the expensive generation and training work, the
// environment's static measurements, the perfect-knowledge statistics, the
// IE candidate memo, and the shared extraction cache are all amortized over
// the jobs that name the same workload. Task construction runs outside the
// registry lock (per-entry once), so a slow build never blocks lookups of
// other workloads.
type Registry struct {
	defaultCacheBytes int64

	// tierFor, when set (by a service with a durable store), resolves the
	// disk cache tier to attach to a freshly built workload's extraction
	// cache. The key it receives is normalized. Set before any Task call.
	tierFor func(regKey) pipeline.Tier

	mu      sync.Mutex
	entries map[regKey]*regEntry

	builds   *obs.Counter
	reuses   *obs.Counter
	resident *obs.Gauge
}

// regKey identifies one shareable task: the normalized binary workload
// spec plus, for n-way jobs, the canonical query string (QuerySpec.key).
// Keying on the canonical string keeps the key comparable — the slices in
// a QuerySpec could not be a map key — and makes equivalent query
// spellings share one entry.
type regKey struct {
	wl    WorkloadSpec
	query string
}

type regEntry struct {
	once sync.Once
	task *joinopt.Task
	err  error
}

// Registry metric families.
const (
	MetricWorkloadBuilds   = "joinoptd_workload_builds_total"
	MetricWorkloadReuses   = "joinoptd_workload_reuses_total"
	MetricWorkloadResident = "joinoptd_workloads_resident"
)

// NewRegistry builds a workload registry. defaultCacheBytes sizes the
// shared extraction cache of workloads whose spec leaves CacheBytes zero.
// Metrics may be nil.
func NewRegistry(defaultCacheBytes int64, m *obs.Registry) *Registry {
	m.Describe(MetricWorkloadBuilds, "workload tasks constructed by the registry")
	m.Describe(MetricWorkloadReuses, "jobs served by an already-constructed workload task")
	m.Describe(MetricWorkloadResident, "distinct workload tasks resident in the registry")
	return &Registry{
		defaultCacheBytes: defaultCacheBytes,
		entries:           map[regKey]*regEntry{},
		builds:            m.Counter(MetricWorkloadBuilds),
		reuses:            m.Counter(MetricWorkloadReuses),
		resident:          m.Gauge(MetricWorkloadResident),
	}
}

// normalize applies spec defaults so equivalent requests share one entry.
// Query jobs name their relations in the query spec, so the binary
// relations default does not apply to them.
func (r *Registry) normalize(spec WorkloadSpec, q *QuerySpec) WorkloadSpec {
	if q == nil && spec.Relations == [2]string{} {
		spec.Relations = [2]string{"HQ", "EX"}
	}
	if spec.NumDocs == 0 {
		spec.NumDocs = 1000
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.CacheBytes == 0 {
		spec.CacheBytes = r.defaultCacheBytes
	}
	return spec
}

// Task resolves the shared Task for a workload spec — plus, for n-way
// jobs, a query spec — constructing it on first use.
func (r *Registry) Task(spec WorkloadSpec, q *QuerySpec) (*joinopt.Task, error) {
	key := regKey{wl: r.normalize(spec, q), query: q.key()}
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &regEntry{}
		r.entries[key] = e
		r.resident.Set(float64(len(r.entries)))
	}
	r.mu.Unlock()

	first := false
	e.once.Do(func() {
		first = true
		r.builds.Inc()
		spec := key.wl
		params := joinopt.WorkloadParams{
			NumDocs:  spec.NumDocs,
			NumDocs2: spec.NumDocs2,
			Seed:     spec.Seed,
			TopK:     spec.TopK,
		}
		if q != nil {
			e.task, e.err = joinopt.NewQuery(params, joinopt.Query{Relations: q.Relations, Joins: q.Joins})
			if e.err != nil {
				e.err = fmt.Errorf("service: building query workload %v: %w", q.Relations, e.err)
				return
			}
			e.task.MergeCost = q.MergeCost
		} else {
			e.task, e.err = joinopt.NewTaskPair(params, spec.Relations[0], spec.Relations[1])
			if e.err != nil {
				e.err = fmt.Errorf("service: building workload %v: %w", spec.Relations, e.err)
				return
			}
		}
		if spec.CacheBytes > 0 {
			e.task.ExtractCacheBytes = spec.CacheBytes
		}
		if r.tierFor != nil {
			if tier := r.tierFor(key); tier != nil {
				e.task.SetExtractCacheTier(tier)
			}
		}
	})
	if !first && e.err == nil {
		r.reuses.Inc()
	}
	return e.task, e.err
}

// Size returns the number of resident workload entries.
func (r *Registry) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
