// Package hub multiplexes many named sampling streams over live
// engines — the concurrency layer between the single-stream
// sampling.Engine and a measurement service watching thousands of
// traffic streams at once. Alongside plain streams it hosts comparison
// groups (sampling.Group): one input stream fanned out to several
// techniques, snapshot as a sampling.Comparison. Streams and groups
// share one id namespace and one lifecycle: one table, one ingest path
// (OfferBatch), one state export (State, Detach), one eviction sweep and
// one checkpoint. Only construction and the typed views (Snapshot/
// GroupSnapshot, Finish/FinishGroup, List/ListGroups) are per kind.
//
// A Hub is lock-striped: ids hash onto a fixed set of shards, each with
// its own mutex and entry table, so operations on unrelated streams
// never contend on a shared lock. The engines themselves are
// concurrent-safe, which keeps the shard locks to map lookups only: the
// hot path (OfferBatch) holds a shard read lock just long enough to
// resolve the id.
//
// Ticks within one stream must arrive in order, so each stream should
// have a single writer, exactly as with a bare Engine; any number of
// goroutines may snapshot concurrently. Streams that stop receiving
// ticks are reaped by Sweep once they exceed the hub's idle TTL.
package hub

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/sampling"
)

// The typed failure modes of lookup and creation; branch with
// errors.Is. Engine construction failures keep their own types
// (sampling.ErrUnknownTechnique, *sampling.ParamError).
var (
	// ErrStreamExists is wrapped by the constructors when the id is
	// already live, as a stream or as a group.
	ErrStreamExists = errors.New("stream already exists")
	// ErrStreamNotFound is wrapped by operations on unknown (or already
	// finished, or evicted) ids, and by the kind-specific views when the
	// id names the other kind.
	ErrStreamNotFound = errors.New("stream not found")
	// ErrInvalidID is wrapped by the constructors when the id is unusable
	// (empty) — a caller mistake, not a lookup miss.
	ErrInvalidID = errors.New("invalid stream id")
)

// kind tells the two entity kinds apart: it indexes the per-kind
// counters and lets the kind-specific views refuse the other kind.
type kind uint8

const (
	kindStream kind = iota // a single-technique *sampling.Engine
	kindGroup              // a comparison *sampling.Group
	numKinds
)

var kindNames = [numKinds]string{"stream", "group"}

// entity is what the hub needs of a live sampler, whatever its kind:
// batch ingest, the finished check of the offer race, and exact state
// export. *sampling.Engine and *sampling.Group both satisfy it.
type entity interface {
	OfferBatch(values []float64) int
	Finished() bool
	MarshalState() ([]byte, error)
}

// entry is one live id: its entity plus the bookkeeping the hub needs
// around it. lastActive is atomic so the ingest path can stamp it and
// Sweep can read it without taking any lock.
type entry struct {
	ent        entity
	kind       kind
	lastActive atomic.Int64 // unix nanoseconds of the last create/restore/OfferBatch
}

// shard is one stripe of the hub: a mutex-guarded entry table plus
// cumulative tick/kept counters. The counters are atomics and survive
// entry removal, so aggregate Stats stays cheap and monotonic. Every
// counter is kept per kind — a group tick fans out to N engines, so
// folding the two together would make neither rate meaningful.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	live    [numKinds]int // live entries per kind, guarded by mu
	ticks   [numKinds]atomic.Int64
	kept    [numKinds]atomic.Int64
}

// Hub manages a set of named sampling streams and comparison groups
// across lock-striped shards. The zero value is not usable; build hubs
// with New.
type Hub struct {
	shards    []shard
	mask      uint64
	clock     func() time.Time
	ttl       time.Duration
	evictHook func(Eviction)
	start     time.Time
	created   [numKinds]atomic.Int64
	evicted   [numKinds]atomic.Int64
}

// Option configures a Hub at construction; see New.
type Option func(*Hub)

// WithShards sets the number of lock stripes, rounded up to a power of
// two and clamped to [1, 65536]. The default of 64 keeps contention
// negligible for thousands of streams; raise it only if profiles show
// shard-lock waits.
func WithShards(n int) Option {
	return func(h *Hub) {
		if n > 1<<16 {
			n = 1 << 16
		}
		p := 1
		for p < n {
			p <<= 1
		}
		h.shards = make([]shard, p)
	}
}

// WithIdleTTL sets the idle threshold used by Sweep: entries that have
// not received ticks (or been created) for longer than ttl are evicted.
// Zero, the default, disables eviction. Snapshots do not count as
// activity — a stream kept alive only by its observers is dead.
func WithIdleTTL(ttl time.Duration) Option {
	return func(h *Hub) { h.ttl = ttl }
}

// WithClock substitutes the hub's time source (activity stamps, Stats
// uptime). The default is time.Now; tests inject fake clocks to drive
// eviction deterministically. Engines created by the hub share it.
func WithClock(now func() time.Time) Option {
	return func(h *Hub) { h.clock = now }
}

// New builds an empty hub.
func New(opts ...Option) *Hub {
	h := &Hub{clock: time.Now}
	WithShards(64)(h)
	for _, opt := range opts {
		opt(h)
	}
	for i := range h.shards {
		h.shards[i].entries = make(map[string]*entry)
	}
	h.mask = uint64(len(h.shards) - 1)
	h.start = h.clock()
	return h
}

// shardOf hashes an id onto its stripe (FNV-1a).
func (h *Hub) shardOf(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	for i := 0; i < len(id); i++ {
		hash ^= uint64(id[i])
		hash *= prime64
	}
	return &h.shards[hash&h.mask]
}

// get resolves a live entry of either kind (and its shard, so hot paths
// hash the id exactly once) or fails with ErrStreamNotFound.
func (h *Hub) get(id string) (*shard, *entry, error) {
	sh := h.shardOf(id)
	sh.mu.RLock()
	e := sh.entries[id]
	sh.mu.RUnlock()
	if e == nil {
		return nil, nil, fmt.Errorf("hub: %q: %w", id, ErrStreamNotFound)
	}
	return sh, e, nil
}

// view resolves a live entry of kind k; an id held by the other kind is
// not found, so each kind's views keep seeing only their own kind.
func (h *Hub) view(id string, k kind) (*entry, error) {
	_, e, err := h.get(id)
	if err == nil && e.kind != k {
		err = fmt.Errorf("hub: %q is a %s, not a %s: %w", id, kindNames[e.kind], kindNames[k], ErrStreamNotFound)
	}
	return e, err
}

// insert registers ent under id as a kind-k entry stamped active at
// now, failing with ErrStreamExists when the id is live as either kind.
func (h *Hub) insert(id string, k kind, ent entity, now int64) error {
	e := &entry{ent: ent, kind: k}
	e.lastActive.Store(now)
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if dup := sh.entries[id]; dup != nil {
		return fmt.Errorf("hub: %s %q: %w", kindNames[dup.kind], id, ErrStreamExists)
	}
	sh.entries[id] = e
	sh.live[k]++
	return nil
}

// remove unregisters id when it is live as kind k.
func (h *Hub) remove(id string, k kind) (*shard, *entry, error) {
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[id]
	if e == nil || e.kind != k {
		return nil, nil, fmt.Errorf("hub: %s %q: %w", kindNames[k], id, ErrStreamNotFound)
	}
	delete(sh.entries, id)
	sh.live[k]--
	return sh, e, nil
}

// add is the one constructor path: it validates the id, builds the
// entity and registers it as a freshly created kind-k entry.
func (h *Hub) add(id string, k kind, build func() (entity, error)) error {
	if id == "" {
		return fmt.Errorf("hub: empty %s id: %w", kindNames[k], ErrInvalidID)
	}
	ent, err := build()
	if err != nil {
		return err
	}
	if err := h.insert(id, k, ent, h.clock().UnixNano()); err != nil {
		return err
	}
	h.created[k].Add(1)
	return nil
}

// withClock appends the hub's clock to the caller's options, so an
// entity's snapshots tick on the hub's clock and fake-clock tests see
// consistent time everywhere. It copies first: the caller's slice may
// have spare capacity that must not be written into.
func (h *Hub) withClock(opts []sampling.Option) []sampling.Option {
	all := make([]sampling.Option, 0, len(opts)+1)
	return append(append(all, opts...), sampling.WithClock(h.clock))
}

// Create builds a fresh engine from the spec (plus engine options, e.g.
// sampling.WithSeed or WithBudget) and registers it under id. The id
// must be non-empty and not yet live as a stream or a group; engine
// construction failures pass through with their types intact
// (sampling.ErrUnknownTechnique, *sampling.ParamError), so a service can
// map them to client errors.
func (h *Hub) Create(id string, spec sampling.Spec, opts ...sampling.Option) error {
	return h.add(id, kindStream, func() (entity, error) {
		return sampling.New(spec, h.withClock(opts)...)
	})
}

// CreateGroup builds a comparison group from the specs (one member
// engine per spec; options as in sampling.NewGroup, so WithEstimator
// attaches the shared input-side estimator) and registers it under id.
// Streams and groups share one id namespace; the failure modes are
// Create's.
func (h *Hub) CreateGroup(id string, specs []sampling.Spec, opts ...sampling.Option) error {
	return h.add(id, kindGroup, func() (entity, error) {
		return sampling.NewGroup(specs, h.withClock(opts)...)
	})
}

// OfferBatch feeds a batch of ticks in order to the stream or group
// registered under id and returns how many samples the batch finalized
// (across all members, for a group). It is the hot path: the shard lock
// covers only the id lookup, and the whole batch runs under one
// acquisition of the entity's lock, never one per tick. Ticks for one
// id must come from a single goroutine (batches from concurrent writers
// would interleave unpredictably); batches for different ids run fully
// in parallel. A group's tick counter counts input ticks, not input x
// members.
//
//samplelint:hotpath
func (h *Hub) OfferBatch(id string, values []float64) (kept int, err error) {
	sh, e, err := h.get(id)
	if err != nil {
		return 0, err
	}
	kept = e.ent.OfferBatch(values)
	// A concurrent Finish (or Sweep eviction) around the batch turns the
	// entity's OfferBatch into a silent no-op; without this check the
	// batch would report success and count ticks no engine saw. The
	// batch itself is atomic under the entity lock, so Finish can no
	// longer land mid-batch.
	if e.ent.Finished() {
		return kept, fmt.Errorf("hub: %s %q: finished while offering: %w", kindNames[e.kind], id, ErrStreamNotFound)
	}
	e.lastActive.Store(h.clock().UnixNano())
	sh.ticks[e.kind].Add(int64(len(values)))
	sh.kept[e.kind].Add(int64(kept))
	return kept, nil
}

// Snapshot returns the stream's live summary without disturbing it.
func (h *Hub) Snapshot(id string) (sampling.Summary, error) {
	e, err := h.view(id, kindStream)
	if err != nil {
		return sampling.Summary{}, err
	}
	return e.ent.(*sampling.Engine).Snapshot(), nil
}

// GroupSnapshot returns the group's live comparison without disturbing
// it.
func (h *Hub) GroupSnapshot(id string) (sampling.Comparison, error) {
	e, err := h.view(id, kindGroup)
	if err != nil {
		return sampling.Comparison{}, err
	}
	return e.ent.(*sampling.Group).Snapshot(), nil
}

// Finish ends a stream: the engine is finalized, the samples only
// decidable at end of stream (e.g. a simple random draw) are returned
// together with the final summary, and the id is released for reuse. A
// failed finalization (an engine deferred error) still removes the
// stream and reports the error in both the return and the summary.
func (h *Hub) Finish(id string) ([]sampling.Sample, sampling.Summary, error) {
	sh, e, err := h.remove(id, kindStream)
	if err != nil {
		return nil, sampling.Summary{}, err
	}
	eng := e.ent.(*sampling.Engine)
	tail, err := eng.Finish()
	sh.kept[kindStream].Add(int64(len(tail)))
	return tail, eng.Snapshot(), err
}

// FinishGroup ends a group: every member is finalized, the per-member
// end-of-stream tails are returned together with the final comparison,
// and the id is released for reuse. Member finalization errors do not
// block removal; they come back joined and stay visible in the member
// summaries.
func (h *Hub) FinishGroup(id string) ([][]sampling.Sample, sampling.Comparison, error) {
	sh, e, err := h.remove(id, kindGroup)
	if err != nil {
		return nil, sampling.Comparison{}, err
	}
	grp := e.ent.(*sampling.Group)
	tails, err := grp.Finish()
	var n int64
	for _, tail := range tails {
		n += int64(len(tail))
	}
	sh.kept[kindGroup].Add(n)
	return tails, grp.Snapshot(), err
}

// ids returns the ids of every live kind-k entry, sorted.
func (h *Hub) ids(k kind) []string {
	var out []string
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		for id, e := range sh.entries {
			if e.kind == k {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// List returns the ids of every live stream, sorted.
func (h *Hub) List() []string { return h.ids(kindStream) }

// ListGroups returns the ids of every live group, sorted.
func (h *Hub) ListGroups() []string { return h.ids(kindGroup) }

// Sweep evicts every stream and group idle for longer than the hub's
// TTL and returns how many it removed. Evicted entities are finalized
// (their end-of-stream samples are dropped — nobody is listening). With
// no TTL configured Sweep is a no-op; a service calls it on a timer.
func (h *Hub) Sweep() int {
	if h.ttl <= 0 {
		return 0
	}
	cutoff := h.clock().Add(-h.ttl).UnixNano()
	type victim struct {
		id string
		e  *entry
	}
	var dead []victim
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for id, e := range sh.entries {
			if e.lastActive.Load() < cutoff {
				delete(sh.entries, id)
				sh.live[e.kind]--
				dead = append(dead, victim{id, e})
			}
		}
		sh.mu.Unlock()
	}
	// The evict hook, then finalization, both outside the shard locks:
	// Finish can do O(stream) work (simple random sampling drains its
	// buffer) and must not stall unrelated streams of the same shard.
	// The hook runs first — it is the last chance to capture the
	// entity's state before Finish closes it.
	for _, d := range dead {
		ev := Eviction{ID: d.id}
		ev.Engine, _ = d.e.ent.(*sampling.Engine)
		ev.Group, _ = d.e.ent.(*sampling.Group)
		if h.evictHook != nil {
			h.evictHook(ev)
		}
		if ev.Engine != nil {
			ev.Engine.Finish()
		} else {
			ev.Group.Finish()
		}
		h.evicted[d.e.kind].Add(1)
	}
	return len(dead)
}

// Stats is the hub's aggregate state, shaped for metrics scraping:
// cumulative monotonic counters (Ticks, Kept, Created, Evicted) plus
// the current stream count and a lifetime average ingest rate.
type Stats struct {
	Streams     int           // live streams right now
	Created     int64         // streams ever created
	Evicted     int64         // streams removed by Sweep
	Ticks       int64         // ticks offered over the hub's lifetime
	Kept        int64         // samples kept over the hub's lifetime
	Uptime      time.Duration // since New
	TicksPerSec float64       // Ticks / Uptime — lifetime average

	// The comparison-group counterparts. GroupTicks counts input ticks
	// (each of which fans out to every member engine of its group);
	// GroupKept counts samples kept across all members.
	Groups        int   // live comparison groups right now
	GroupsCreated int64 // groups ever created
	GroupsEvicted int64 // groups removed by Sweep
	GroupTicks    int64 // ticks offered to groups over the hub's lifetime
	GroupKept     int64 // samples kept by group members over the hub's lifetime
}

// HurstStats aggregates the live long-range-dependence estimates over
// every stream built with sampling.WithEstimator: how many streams are
// estimating, how many have resolved on each side, and the mean input
// H, kept H and drift over the resolved streams. Means are NaN while
// their count is zero.
type HurstStats struct {
	Estimating int     // live streams carrying an estimator
	InputN     int     // streams whose input-side estimate has resolved
	KeptN      int     // streams whose kept-side estimate has resolved
	DriftN     int     // streams where both sides (hence drift) resolved
	MeanInputH float64 // mean pre-sampling H over InputN streams
	MeanKeptH  float64 // mean post-sampling H over KeptN streams
	MeanDrift  float64 // mean (kept - input) H over DriftN streams
}

// Hurst walks every live stream and folds its Hurst block into the
// aggregate. Cost is O(streams) — one engine snapshot each, taken
// outside the shard locks — so scrape it at dashboard frequency, not
// per request.
func (h *Hub) Hurst() HurstStats {
	st := HurstStats{MeanInputH: math.NaN(), MeanKeptH: math.NaN(), MeanDrift: math.NaN()}
	var sumIn, sumKept, sumDrift float64
	var engines []*sampling.Engine
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		engines = engines[:0]
		for _, e := range sh.entries {
			if eng, ok := e.ent.(*sampling.Engine); ok {
				engines = append(engines, eng)
			}
		}
		sh.mu.RUnlock()
		for _, eng := range engines {
			hs := eng.Snapshot().Hurst
			if hs == nil {
				continue
			}
			st.Estimating++
			if hs.Input.OK {
				st.InputN++
				sumIn += hs.Input.H
			}
			if hs.Kept.OK {
				st.KeptN++
				sumKept += hs.Kept.H
			}
			if !math.IsNaN(hs.Drift) {
				st.DriftN++
				sumDrift += hs.Drift
			}
		}
	}
	if st.InputN > 0 {
		st.MeanInputH = sumIn / float64(st.InputN)
	}
	if st.KeptN > 0 {
		st.MeanKeptH = sumKept / float64(st.KeptN)
	}
	if st.DriftN > 0 {
		st.MeanDrift = sumDrift / float64(st.DriftN)
	}
	return st
}

// Stats aggregates over the shards. Cost is O(shards), independent of
// the number of streams, so it is safe to scrape at high frequency.
func (h *Hub) Stats() Stats {
	s := Stats{
		Created:       h.created[kindStream].Load(),
		Evicted:       h.evicted[kindStream].Load(),
		GroupsCreated: h.created[kindGroup].Load(),
		GroupsEvicted: h.evicted[kindGroup].Load(),
		Uptime:        h.clock().Sub(h.start),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		s.Ticks += sh.ticks[kindStream].Load()
		s.Kept += sh.kept[kindStream].Load()
		s.GroupTicks += sh.ticks[kindGroup].Load()
		s.GroupKept += sh.kept[kindGroup].Load()
		sh.mu.RLock()
		s.Streams += sh.live[kindStream]
		s.Groups += sh.live[kindGroup]
		sh.mu.RUnlock()
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.TicksPerSec = float64(s.Ticks) / sec
	}
	return s
}
