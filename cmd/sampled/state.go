package main

// The durability surface of the daemon: the per-stream state resource
// (the wire the cluster router's checkpoint-transfer handoff rides),
// the health/readiness probes, and the -checkpoint-dir lifecycle —
// restore on boot, periodic snapshots off the hot path, one final
// snapshot on shutdown, and archival of idle streams as they are
// evicted.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/sampling/hub"
	"repro/sampling/persist"
)

// checkpointFile is the container's name inside -checkpoint-dir; the
// evicted/ subdirectory archives final per-stream blobs as Sweep
// retires idle streams.
const (
	checkpointFile = "hub.ckpt"
	evictedDir     = "evicted"
)

// healthz is pure liveness: the process is up and serving. It never
// looks at the hub — a daemon mid-restore or mid-drain is still alive.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is readiness: false (503) until the boot-time restore has
// completed and again once shutdown has begun draining, so a load
// balancer or cluster router stops sending traffic before the
// listener goes away.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.ready != nil && !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// state exports the exact state of the stream or group the URL names
// (GET /v1/streams/{id}/state and /v1/groups/{id}/state alike) without
// disturbing it.
func (s *server) state(w http.ResponseWriter, r *http.Request) {
	blob, err := s.hub.State(r.PathValue("id"))
	writeBlob(w, blob, err)
}

// writeBlob sends a binary state blob, or the error raised in its place.
func writeBlob(w http.ResponseWriter, blob []byte, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

// readStateBody buffers a state-blob request body under the body cap,
// incrementally (no unbounded slurp), reporting the 400/413 itself on
// failure.
func (s *server) readStateBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return buf.Bytes(), true
}

// putState builds the handler that installs an exported state blob as
// a new entity through restore (PUT /v1/streams/{id}/state with
// hub.RestoreStream, /v1/groups/{id}/state with hub.RestoreGroupState)
// — the receiving half of a handoff. The id must not be live as either
// kind; a corrupt blob is a 400.
func (s *server) putState(restore func(id string, state []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		blob, ok := s.readStateBody(w, r)
		if !ok {
			return
		}
		id := r.PathValue("id")
		if err := restore(id, blob); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": id, "status": "restored"})
	}
}

// detachState removes the stream or group the URL names without
// finalizing it and returns its final state (DELETE
// /v1/{streams,groups}/{id}/state) — the sending half of a handoff,
// atomic against concurrent ticks.
func (s *server) detachState(w http.ResponseWriter, r *http.Request) {
	blob, err := s.hub.Detach(r.PathValue("id"))
	writeBlob(w, blob, err)
}

// checkpointer owns the -checkpoint-dir lifecycle around one hub.
type checkpointer struct {
	hub    *hub.Hub
	dir    string
	logger *slog.Logger
	saves  atomic.Int64 // successful checkpoint writes, for tests/metrics
}

func newCheckpointer(h *hub.Hub, dir string, logger *slog.Logger) *checkpointer {
	return &checkpointer{hub: h, dir: dir, logger: logger}
}

// restore loads the checkpoint file, if one exists, into the hub — the
// boot half of a zero-downtime restart. A missing file is a clean
// first boot; a corrupt file is a hard error (refusing to serve with
// silently dropped state beats serving wrong answers).
func (c *checkpointer) restore() error {
	path := filepath.Join(c.dir, checkpointFile)
	ck, err := persist.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		c.logger.Info("no checkpoint to restore", "path", path)
		return nil
	}
	if err != nil {
		return err
	}
	if err := c.hub.Restore(ck); err != nil {
		return err
	}
	c.logger.Info("restored checkpoint",
		"path", path, "streams", len(ck.Streams), "groups", len(ck.Groups),
		"taken_at", time.Unix(0, ck.TakenAtUnixNano).UTC().Format(time.RFC3339))
	return nil
}

// save cuts one whole-hub checkpoint and publishes it atomically.
func (c *checkpointer) save() error {
	ck, err := c.hub.Checkpoint()
	if err != nil {
		return err
	}
	if err := persist.WriteFile(filepath.Join(c.dir, checkpointFile), ck); err != nil {
		return err
	}
	c.saves.Add(1)
	return nil
}

// loop writes a checkpoint every interval until the context ends,
// then writes one final checkpoint — the shutdown half of a
// zero-downtime restart. The final write runs after the caller's
// drain (run sequences it), so the file carries every acknowledged
// tick.
func (c *checkpointer) loop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := c.save(); err != nil {
				c.logger.Error("checkpoint failed", "err", err)
			} else {
				c.logger.Debug("checkpoint written", "dir", c.dir)
			}
		}
	}
}

// evictHook archives an idle stream's final state under
// <dir>/evicted/ as Sweep retires it — the stream will never tick
// again, so this blob is its complete history. Archive failures are
// logged, never fatal: eviction must proceed regardless.
func (c *checkpointer) evictHook(ev hub.Eviction) {
	var blob []byte
	var err error
	suffix := ".engine"
	switch {
	case ev.Engine != nil:
		blob, err = ev.Engine.MarshalState()
	case ev.Group != nil:
		blob, err = ev.Group.MarshalState()
		suffix = ".group"
	}
	if err != nil {
		c.logger.Error("archiving evicted stream failed", "id", ev.ID, "err", err)
		return
	}
	dir := filepath.Join(c.dir, evictedDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.logger.Error("archiving evicted stream failed", "id", ev.ID, "err", err)
		return
	}
	path := filepath.Join(dir, url.PathEscape(ev.ID)+suffix)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		c.logger.Error("archiving evicted stream failed", "id", ev.ID, "err", err)
		return
	}
	c.logger.Info("archived evicted stream", "id", ev.ID, "path", path)
}
