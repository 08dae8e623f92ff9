package sev

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
	"dcnr/internal/topology"
)

// Sharded partitions SEV reports across goroutine-owned stores: each
// shard is a private *Store driven by a single owner goroutine that
// executes operations sent over its channel, so no query or ingest ever
// contends on a store-wide lock. Queries fan out to every shard in
// parallel and merge the partial aggregates; ingest assigns globally
// unique IDs up front and distributes the batch round-robin.
//
// The dataset generation (Generation) is bumped once per successful
// ingest batch — the serve layer keys its result cache on it, so a bump
// invalidates every cached aggregation at once.
//
// A Sharded must be created with NewSharded and released with Close;
// operations after Close panic.
type Sharded struct {
	shards []*shard
	wg     sync.WaitGroup
	gen    atomic.Uint64

	// ingestMu serializes ingest only — queries never touch it. ids holds
	// every assigned or explicit report ID for global duplicate rejection.
	ingestMu sync.Mutex
	ids      map[int]bool
	nextID   int
}

// shard is one goroutine-owned partition. Only the owner goroutine
// touches store once the shard is running.
type shard struct {
	store *Store
	ops   chan func(*Store)
}

// NewSharded returns a sharded store with n partitions (n < 1 is treated
// as 1), each owned by its own goroutine.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{ids: make(map[int]bool), nextID: 1}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		sh := &shard{store: NewStore(), ops: make(chan func(*Store), 16)}
		s.shards[i] = sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for op := range sh.ops {
				op(sh.store)
			}
		}()
	}
	return s
}

// Close stops every shard goroutine and waits for them to drain. No
// operation may be issued after (or concurrently with) Close.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		close(sh.ops)
	}
	s.wg.Wait()
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Generation returns the dataset generation: bumped once per successful
// AddAll or ReadJSON batch.
func (s *Sharded) Generation() uint64 { return s.gen.Load() }

// Instrument attaches one shared metrics registry to every shard's query
// engine; counters are atomic, so the shards aggregate into the same
// series. reg may be nil.
func (s *Sharded) Instrument(reg *obs.Registry) {
	s.fanOut(func(st *Store) int { st.Instrument(reg); return 0 })
}

// fanOutInto runs fn against every shard's store in parallel (each on
// its owner goroutine), writing the per-shard results into out in shard
// order.
func fanOutInto[T any](s *Sharded, out []T, fn func(*Store) T) {
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		i, sh := i, sh
		sh.ops <- func(st *Store) {
			defer wg.Done()
			out[i] = fn(st)
		}
	}
	wg.Wait()
}

func (s *Sharded) fanOut(fn func(*Store) int) []int {
	out := make([]int, len(s.shards))
	fanOutInto(s, out, fn)
	return out
}

// Len returns the total number of stored reports across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, c := range s.fanOut(func(st *Store) int { return st.Len() }) {
		n += c
	}
	return n
}

// Get returns the report with the given ID from whichever shard holds it.
func (s *Sharded) Get(id int) (Report, error) {
	type hit struct {
		r  Report
		ok bool
	}
	out := make([]hit, len(s.shards))
	fanOutInto(s, out, func(st *Store) hit {
		r, err := st.Get(id)
		return hit{r, err == nil}
	})
	for _, h := range out {
		if h.ok {
			return h.r, nil
		}
	}
	return Report{}, fmt.Errorf("sev: no report with ID %d", id)
}

// AddAll validates the batch, assigns globally unique IDs (a report with
// ID 0 gets a fresh one; explicit IDs are preserved and rejected on
// collision), distributes the reports round-robin across the shards, and
// bumps the dataset generation. On error nothing is ingested. It returns
// the assigned IDs in input order.
func (s *Sharded) AddAll(batch []Report) ([]int, error) {
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", batch[i].ID, err)
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	seen := make(map[int]bool, len(batch))
	for i := range batch {
		if id := batch[i].ID; id != 0 {
			if s.ids[id] || seen[id] {
				return nil, fmt.Errorf("sev: duplicate report ID %d in batch", id)
			}
			seen[id] = true
		}
	}
	ids := make([]int, len(batch))
	chunks := make([][]Report, len(s.shards))
	for i := range batch {
		r := batch[i]
		if r.ID == 0 {
			for seen[s.nextID] || s.ids[s.nextID] {
				s.nextID++
			}
			r.ID = s.nextID
			s.nextID++
		} else if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
		ids[i] = r.ID
		s.ids[r.ID] = true
		w := i % len(chunks)
		chunks[w] = append(chunks[w], r)
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if len(chunks[i]) == 0 {
			continue
		}
		wg.Add(1)
		i, sh := i, sh
		sh.ops <- func(st *Store) {
			defer wg.Done()
			_, errs[i] = st.AddAll(chunks[i])
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Unreachable: validation and global ID dedup already passed.
			return nil, err
		}
	}
	s.gen.Add(1)
	return ids, nil
}

// ReadJSON ingests the reports decoded from r as one batch. It shares
// Store.ReadJSON's loader, so both accept and reject the same datasets
// and preserve the same IDs. Unlike Store.ReadJSON it appends to the
// current dataset rather than replacing it; call it on a fresh Sharded
// for a whole-dataset load.
func (s *Sharded) ReadJSON(r io.Reader) error {
	reports, err := decodeDataset(r)
	if err != nil {
		return err
	}
	_, err = s.AddAll(reports)
	return err
}

// Query starts a fan-out query over every shard. The builder mirrors
// Store.Query; each aggregation dispatches the narrowed query to all
// shard goroutines and merges the partial results.
func (s *Sharded) Query() ShardedQuery { return ShardedQuery{s: s} }

// ShardedQuery is a filtered fan-out view over a Sharded store's
// reports. Like Query it is a value: narrowing returns a new one.
type ShardedQuery struct {
	s *Sharded
	q Query
}

// Year narrows to incidents that started in the given calendar year.
func (sq ShardedQuery) Year(y int) ShardedQuery { sq.q = sq.q.Year(y); return sq }

// DeviceType narrows to incidents whose offending device has type t.
func (sq ShardedQuery) DeviceType(t topology.DeviceType) ShardedQuery {
	sq.q = sq.q.DeviceType(t)
	return sq
}

// Severity narrows to incidents of the given level.
func (sq ShardedQuery) Severity(v Severity) ShardedQuery { sq.q = sq.q.Severity(v); return sq }

// Design narrows to incidents on devices of the given network design.
func (sq ShardedQuery) Design(d topology.Design) ShardedQuery { sq.q = sq.q.Design(d); return sq }

// RootCause narrows to incidents carrying the given root-cause category.
func (sq ShardedQuery) RootCause(c RootCause) ShardedQuery { sq.q = sq.q.RootCause(c); return sq }

// Since narrows to incidents starting at or after t (hours since epoch).
func (sq ShardedQuery) Since(t float64) ShardedQuery { sq.q = sq.q.Since(t); return sq }

// Until narrows to incidents starting strictly before t.
func (sq ShardedQuery) Until(t float64) ShardedQuery { sq.q = sq.q.Until(t); return sq }

// shardQuery runs fn with the query bound to every shard's store and
// returns the per-shard results.
func shardQuery[T any](sq ShardedQuery, fn func(Query) T) []T {
	out := make([]T, len(sq.s.shards))
	var wg sync.WaitGroup
	for i, sh := range sq.s.shards {
		wg.Add(1)
		i, sh := i, sh
		sh.ops <- func(st *Store) {
			defer wg.Done()
			q := sq.q
			q.store = st
			out[i] = fn(q)
		}
	}
	wg.Wait()
	return out
}

func mergeCounts[K comparable](parts []map[K]int) map[K]int {
	out := make(map[K]int)
	for _, p := range parts {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

func mergeNested[K1, K2 comparable](parts []map[K1]map[K2]int) map[K1]map[K2]int {
	out := make(map[K1]map[K2]int)
	for _, p := range parts {
		for k1, row := range p {
			dst := out[k1]
			if dst == nil {
				dst = make(map[K2]int)
				out[k1] = dst
			}
			for k2, v := range row {
				dst[k2] += v
			}
		}
	}
	return out
}

func mergeSamples[K comparable](parts []map[K][]float64) map[K][]float64 {
	out := make(map[K][]float64)
	for _, p := range parts {
		for k, vs := range p {
			out[k] = append(out[k], vs...)
		}
	}
	return out
}

// Count returns the number of matching reports across all shards.
func (sq ShardedQuery) Count() int {
	n := 0
	for _, c := range shardQuery(sq, Query.Count) {
		n += c
	}
	return n
}

// CountByDeviceType groups matching reports by offending device type.
func (sq ShardedQuery) CountByDeviceType() map[topology.DeviceType]int {
	return mergeCounts(shardQuery(sq, Query.CountByDeviceType))
}

// CountBySeverity groups matching reports by severity level.
func (sq ShardedQuery) CountBySeverity() map[Severity]int {
	return mergeCounts(shardQuery(sq, Query.CountBySeverity))
}

// CountByYear groups matching reports by start year.
func (sq ShardedQuery) CountByYear() map[int]int {
	return mergeCounts(shardQuery(sq, Query.CountByYear))
}

// CountByRootCause groups matching reports by root-cause category.
func (sq ShardedQuery) CountByRootCause() map[RootCause]int {
	return mergeCounts(shardQuery(sq, Query.CountByRootCause))
}

// CountBySeverityDeviceType groups by severity and, within each level,
// by device type.
func (sq ShardedQuery) CountBySeverityDeviceType() map[Severity]map[topology.DeviceType]int {
	return mergeNested(shardQuery(sq, Query.CountBySeverityDeviceType))
}

// CountByYearSeverity groups by start year and severity level.
func (sq ShardedQuery) CountByYearSeverity() map[int]map[Severity]int {
	return mergeNested(shardQuery(sq, Query.CountByYearSeverity))
}

// CountByYearDeviceType groups by start year and device type.
func (sq ShardedQuery) CountByYearDeviceType() map[int]map[topology.DeviceType]int {
	return mergeNested(shardQuery(sq, Query.CountByYearDeviceType))
}

// CountByYearDesign groups by start year and network design.
func (sq ShardedQuery) CountByYearDesign() map[int]map[topology.Design]int {
	return mergeNested(shardQuery(sq, Query.CountByYearDesign))
}

// Resolutions returns the resolution times (hours) of matching reports.
// Order across shards is unspecified; percentile consumers sort anyway.
func (sq ShardedQuery) Resolutions() []float64 {
	var out []float64
	for _, part := range shardQuery(sq, Query.Resolutions) {
		out = append(out, part...)
	}
	return out
}

// ResolutionsByDeviceType groups matching resolution times by device type.
func (sq ShardedQuery) ResolutionsByDeviceType() map[topology.DeviceType][]float64 {
	return mergeSamples(shardQuery(sq, Query.ResolutionsByDeviceType))
}

// ResolutionsByYear groups matching resolution times by start year.
func (sq ShardedQuery) ResolutionsByYear() map[int][]float64 {
	return mergeSamples(shardQuery(sq, Query.ResolutionsByYear))
}

// Starts returns the start times of matching reports in ascending order.
func (sq ShardedQuery) Starts() []float64 {
	var out []float64
	for _, part := range shardQuery(sq, Query.Starts) {
		out = append(out, part...)
	}
	sort.Float64s(out)
	return out
}
