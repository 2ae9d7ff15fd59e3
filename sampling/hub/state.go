package hub

// Durable state: a hub can cut a whole-process checkpoint of every
// live stream and group (plus its cumulative counters) and later
// rebuild itself from one, and individual streams and groups can be
// exported, imported and detached as opaque state blobs — the
// primitives under sampled's -checkpoint-dir lifecycle and the cluster
// router's stream handoff.

import (
	"fmt"
	"slices"
	"strings"

	"repro/sampling"
	"repro/sampling/persist"
)

// Eviction describes one stream or group Sweep is about to finalize,
// handed to the hub's evict hook before Finish runs. Exactly one of
// Engine and Group is non-nil. The hook runs outside all shard locks;
// the engine is still live, so MarshalState captures its final state.
type Eviction struct {
	ID     string
	Engine *sampling.Engine // the evicted stream's engine, nil for groups
	Group  *sampling.Group  // the evicted comparison group, nil for streams
}

// WithEvictHook installs a callback Sweep invokes for every stream
// and group it evicts, after removal from the table but before the
// engine is finalized — the window where a checkpointing service can
// persist a final snapshot of an idle stream that will never tick
// again. The hook runs synchronously on the Sweep caller's goroutine,
// outside all shard locks; a slow hook slows Sweep, never ingest.
func WithEvictHook(fn func(Eviction)) Option {
	return func(h *Hub) { h.evictHook = fn }
}

// Checkpoint cuts a consistent-enough snapshot of the whole hub into
// a persist container: every live stream and group's exact state plus
// the cumulative counters. The shard locks are held only to copy out
// id/entry pairs; the marshaling — the O(state) part — runs outside
// them, taking each entity's own lock briefly, so ingest on other
// streams never stalls behind a checkpoint. Streams that tick while the
// checkpoint is being cut land in it at whatever tick boundary their
// marshal observed — each blob is internally exact, which is the
// invariant restore needs.
//
// The caller's hub clock stamps TakenAt; records come out sorted by
// id (List order), so identical hub state yields identical bytes.
func (h *Hub) Checkpoint() (*persist.Checkpoint, error) {
	ck := &persist.Checkpoint{TakenAtUnixNano: h.clock().UnixNano()}

	type live struct {
		id string
		e  *entry
	}
	var all []live
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		for id, e := range sh.entries {
			all = append(all, live{id, e})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(all, func(a, b live) int { return strings.Compare(a.id, b.id) })

	for _, l := range all {
		blob, err := l.e.ent.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("hub: checkpointing %s %q: %w", kindNames[l.e.kind], l.id, err)
		}
		rec := persist.StreamRecord{ID: l.id, LastActiveUnixNano: l.e.lastActive.Load(), State: blob}
		if l.e.kind == kindStream {
			ck.Streams = append(ck.Streams, rec)
		} else {
			ck.Groups = append(ck.Groups, persist.GroupRecord(rec))
		}
	}

	// Counters are read after the tables: a stream created mid-cut may
	// be counted without appearing (harmless — Created is cumulative,
	// not a table length), but never the reverse.
	ck.Totals = persist.Totals{
		Created:       h.created[kindStream].Load(),
		Evicted:       h.evicted[kindStream].Load(),
		GroupsCreated: h.created[kindGroup].Load(),
		GroupsEvicted: h.evicted[kindGroup].Load(),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		ck.Totals.Ticks += sh.ticks[kindStream].Load()
		ck.Totals.Kept += sh.kept[kindStream].Load()
		ck.Totals.GroupTicks += sh.ticks[kindGroup].Load()
		ck.Totals.GroupKept += sh.kept[kindGroup].Load()
	}
	return ck, nil
}

// restoreEntity decodes one state blob of kind k into a live entity on
// the hub's clock.
func (h *Hub) restoreEntity(k kind, state []byte) (entity, error) {
	if k == kindStream {
		return sampling.RestoreEngine(state, sampling.WithClock(h.clock))
	}
	return sampling.RestoreGroup(state, sampling.WithClock(h.clock))
}

// Restore rebuilds the hub's contents from a checkpoint: every record
// becomes a live stream or group with exactly the state it was
// checkpointed with, and the container's totals are folded into the
// hub's cumulative counters (so Stats spans the previous incarnation).
// Restore is all-or-nothing up front: every blob is decoded before any
// id is registered, so a corrupt record leaves the hub untouched.
// Restored entries are stamped active now, on the hub's clock — process
// downtime is not idleness, and a freshly restored hub must not
// mass-evict on its first Sweep. Restore is meant for an empty hub
// (boot); an id that is already live, or that the checkpoint names
// twice (a stream and a group may not share one), fails with
// ErrStreamExists after the decode pass, with nothing inserted.
func (h *Hub) Restore(ck *persist.Checkpoint) error {
	type pending struct {
		id   string
		kind kind
		ent  entity
	}
	recs := make([]pending, 0, len(ck.Streams)+len(ck.Groups))
	decode := func(k kind, i int, id string, state []byte) error {
		if id == "" {
			return fmt.Errorf("hub: checkpoint %s record %d: empty id: %w", kindNames[k], i, ErrInvalidID)
		}
		ent, err := h.restoreEntity(k, state)
		if err != nil {
			return fmt.Errorf("hub: restoring %s %q: %w", kindNames[k], id, err)
		}
		recs = append(recs, pending{id, k, ent})
		return nil
	}
	for i, rec := range ck.Streams {
		if err := decode(kindStream, i, rec.ID, rec.State); err != nil {
			return err
		}
	}
	for i, rec := range ck.Groups {
		if err := decode(kindGroup, i, rec.ID, rec.State); err != nil {
			return err
		}
	}
	// Collision check before insertion keeps the operation atomic with
	// a single writer (the boot path); concurrent creators racing a
	// Restore would still be caught by insert's dup check below.
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if _, e, _ := h.get(r.id); e != nil || seen[r.id] {
			return fmt.Errorf("hub: restoring %s %q: %w", kindNames[r.kind], r.id, ErrStreamExists)
		}
		seen[r.id] = true
	}
	now := h.clock().UnixNano()
	for _, r := range recs {
		if err := h.insert(r.id, r.kind, r.ent, now); err != nil {
			return err
		}
	}
	// The checkpoint's totals fold into this incarnation's counters.
	// Tick/kept counters are striped; shard 0 absorbs the carried
	// totals — Stats only ever sums them.
	h.created[kindStream].Add(ck.Totals.Created)
	h.evicted[kindStream].Add(ck.Totals.Evicted)
	h.created[kindGroup].Add(ck.Totals.GroupsCreated)
	h.evicted[kindGroup].Add(ck.Totals.GroupsEvicted)
	h.shards[0].ticks[kindStream].Add(ck.Totals.Ticks)
	h.shards[0].kept[kindStream].Add(ck.Totals.Kept)
	h.shards[0].ticks[kindGroup].Add(ck.Totals.GroupTicks)
	h.shards[0].kept[kindGroup].Add(ck.Totals.GroupKept)
	return nil
}

// State exports the exact state of the stream or group registered
// under id as a framed blob (Engine.MarshalState or Group.MarshalState)
// without disturbing it — one half of the cluster handoff protocol.
func (h *Hub) State(id string) ([]byte, error) {
	_, e, err := h.get(id)
	if err != nil {
		return nil, err
	}
	return e.ent.MarshalState()
}

// RestoreStream registers a new stream under id from an exported
// engine state blob — the other half of the handoff protocol. The id
// must not be live; the blob must be a valid engine state. A handed-off
// stream counts as created on this hub.
func (h *Hub) RestoreStream(id string, state []byte) error {
	return h.add(id, kindStream, func() (entity, error) { return h.restoreEntity(kindStream, state) })
}

// RestoreGroupState registers a new comparison group under id from an
// exported group state blob, mirroring RestoreStream.
func (h *Hub) RestoreGroupState(id string, state []byte) error {
	return h.add(id, kindGroup, func() (entity, error) { return h.restoreEntity(kindGroup, state) })
}

// Detach exports the state of the stream or group registered under id
// and removes it from the hub without finalizing it — the source side
// of a completed handoff: the entity lives on elsewhere, so running
// Finish here (draining the reservoir, closing the estimators) would be
// wrong. The state blob and the removal are atomic under the shard
// lock, so no tick can slip in between export and removal.
func (h *Hub) Detach(id string) ([]byte, error) {
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[id]
	if e == nil {
		return nil, fmt.Errorf("hub: %q: %w", id, ErrStreamNotFound)
	}
	blob, err := e.ent.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("hub: detaching %s %q: %w", kindNames[e.kind], id, err)
	}
	delete(sh.entries, id)
	sh.live[e.kind]--
	return blob, nil
}
