// Package dfs models Flint's checkpoint storage: an HDFS-style replicated
// file system laid over EBS-like network volumes that survive server
// revocations (§4 "Checkpoint Storage").
//
// Two aspects matter to Flint and are modelled here:
//
//   - Timing: a checkpoint write of B bytes from one node takes
//     B·R/WriteBW seconds, where R is the replication factor (each byte
//     is written R times) and WriteBW is the per-node write bandwidth.
//     Reads take B/ReadBW. The execution engine charges these durations
//     on the virtual clock.
//
//   - Cost: EBS SSD volumes cost $0.10 per GB-month. The store integrates
//     byte-seconds of occupancy so experiments can report the 1–2 %-of-
//     on-demand storage overhead the paper measures (§5.5).
//
// Contents are durable: revoking a node never loses checkpointed data,
// exactly the property Flint gets from EBS remounting + HDFS re-replication.
package dfs

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flint/internal/simclock"
)

// Config describes the storage fabric.
type Config struct {
	ReplicationFactor int
	WriteBW           float64 // bytes/s per writing node
	ReadBW            float64 // bytes/s per reading node
	PricePerGBMonth   float64 // dollars
}

// DefaultConfig mirrors the paper's setup: HDFS with 3-way replication on
// SSD EBS volumes at $0.10/GB-month, with bandwidths typical of 2015-era
// EBS-backed nodes (~100 MB/s effective write, somewhat faster reads).
func DefaultConfig() Config {
	return Config{
		ReplicationFactor: 3,
		WriteBW:           100 << 20,
		ReadBW:            150 << 20,
		PricePerGBMonth:   0.10,
	}
}

// S3Config models the paper's alternative checkpoint store (§4): an S3
// object store is "about 20 times cheaper than EBS, and is a viable
// option for reducing storage costs, albeit at worse read/write
// performance". Replication is internal to the service (factor 1 from
// the client's view).
func S3Config() Config {
	return Config{
		ReplicationFactor: 1,
		WriteBW:           25 << 20,
		ReadBW:            60 << 20,
		PricePerGBMonth:   0.005,
	}
}

type object struct {
	value any
	bytes int64
	putAt float64
}

// Store is the checkpoint store. All methods are safe for concurrent
// use: engine workers Peek/Has during dispatch rounds while the
// simulation thread owns mutations, and the serverless backend's
// external-state auditor (and its stress tests) drive genuinely
// concurrent writers. The mutex serializes access; determinism is the
// callers' concern (the engine replays mutations in task order).
type Store struct {
	mu   sync.Mutex
	cfg  Config
	objs map[string]*object

	// readFault, when set, makes reads of matching keys behave as
	// corrupt: Get/Peek/Has report the object as absent, forcing the
	// engine's lineage fallback. Pure function of its argument (plus the
	// injector's frozen clock) — it is consulted from worker goroutines.
	readFault func(key string) bool

	// changes is the retained tail of the presence log: every key whose
	// existence changed (created by Put, removed by Delete/DeletePrefix),
	// oldest first. changeSeq counts every entry ever logged, so the
	// tail holds sequence numbers [changeSeq-len(changes), changeSeq).
	changes   []string
	changeSeq uint64

	// occupancy accounting
	curBytes     int64
	lastAt       float64
	byteSeconds  float64
	peakBytes    int64
	bytesWritten int64
	bytesRead    int64
	puts, gets   int
	deletes      int
}

// New creates an empty store.
func New(cfg Config) *Store {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.WriteBW <= 0 {
		cfg.WriteBW = 100 << 20
	}
	if cfg.ReadBW <= 0 {
		cfg.ReadBW = 150 << 20
	}
	return &Store{cfg: cfg, objs: make(map[string]*object)}
}

// Key builds the canonical checkpoint key for a partition: the paper
// stores "all partition checkpoints that belong to a single RDD inside
// the same directory", which we mirror as rdd/<id>/part/<index>.
func Key(rddID, part int) string {
	var buf [40]byte
	return string(AppendKey(buf[:0], rddID, part))
}

// AppendKey appends Key(rddID, part) to dst. Hot-path probes build the
// key in a stack buffer and pass it to Probe, which never allocates.
func AppendKey(dst []byte, rddID, part int) []byte {
	return AppendPartKey(dst, "rdd/", rddID, part)
}

// AppendPartKey appends the key <dir><id>/part/<part> to dst: the
// layout of Key, under an arbitrary directory prefix.
func AppendPartKey(dst []byte, dir string, id, part int) []byte {
	dst = append(dst, dir...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, "/part/"...)
	return strconv.AppendInt(dst, int64(part), 10)
}

// RDDPrefix is the directory prefix holding all of an RDD's partitions.
func RDDPrefix(rddID int) string { return "rdd/" + strconv.Itoa(rddID) + "/" }

// maxChangeLog bounds the retained presence-log tail; a reader that
// falls further behind is told its view is incomplete.
const maxChangeLog = 4096

// logChange appends key to the presence log. Caller holds s.mu.
func (s *Store) logChange(key string) {
	if len(s.changes) >= maxChangeLog {
		n := copy(s.changes, s.changes[len(s.changes)/2:])
		clear(s.changes[n:])
		s.changes = s.changes[:n]
	}
	s.changes = append(s.changes, key)
	s.changeSeq++
}

// Changes appends to dst, oldest first, every key whose existence
// changed at or after sequence number since, and returns it with the
// sequence number to pass next time. complete is false when the log no
// longer retains everything since then (the reader fell too far behind,
// or SetReadFault changed the readability of every key at once): the
// reader must then treat every key as changed.
func (s *Store) Changes(since uint64, dst []string) (keys []string, next uint64, complete bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.changeSeq - uint64(len(s.changes))
	if since < first {
		return dst, s.changeSeq, false
	}
	if since < s.changeSeq {
		dst = append(dst, s.changes[since-first:]...)
	}
	return dst, s.changeSeq, true
}

// advance brings the occupancy integral up to time now.
func (s *Store) advance(now float64) {
	if now > s.lastAt {
		s.byteSeconds += float64(s.curBytes) * (now - s.lastAt)
		s.lastAt = now
	}
}

// Put stores value under key at time now, replacing any prior object.
// bytes is the logical (pre-replication) size.
//
//lint:effects mutates dfs objects and occupancy accounting; apply at commit, never from worker compute
func (s *Store) Put(key string, value any, bytes int64, now float64) {
	if bytes < 0 {
		bytes = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	if old, ok := s.objs[key]; ok {
		s.curBytes -= old.bytes * int64(s.cfg.ReplicationFactor)
	} else {
		s.logChange(key)
	}
	s.objs[key] = &object{value: value, bytes: bytes, putAt: now}
	s.curBytes += bytes * int64(s.cfg.ReplicationFactor)
	if s.curBytes > s.peakBytes {
		s.peakBytes = s.curBytes
	}
	s.bytesWritten += bytes * int64(s.cfg.ReplicationFactor)
	s.puts++
}

// SetReadFault installs (or, with nil, removes) the chaos read-fault
// hook. While f(key) returns true the object behaves as unreadable for
// Get, Peek and Has — the data still exists and its occupancy still
// bills, exactly like a temporarily corrupt or unreachable replica.
//
//lint:effects installs the chaos read-fault hook on shared store state
func (s *Store) SetReadFault(f func(key string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readFault = f
	// Every key's readability may have changed: drop the log tail so
	// every reader's next Changes call reports an incomplete view.
	clear(s.changes)
	s.changes = s.changes[:0]
	s.changeSeq++
}

// faulted reports whether key is inside an injected read-fault window.
func (s *Store) faulted(key string) bool {
	return s.readFault != nil && s.readFault(key)
}

// Get returns the stored value and its logical size.
//
//lint:effects books read accounting; workers use Peek and replay with NoteReads at commit
func (s *Store) Get(key string, now float64) (value any, bytes int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[key]
	if !ok || s.faulted(key) {
		return nil, 0, false
	}
	s.bytesRead += o.bytes
	s.gets++
	return o.value, o.bytes, true
}

// Peek returns the stored value and its logical size without touching
// read accounting; pair with NoteReads to book the reads afterwards.
func (s *Store) Peek(key string) (value any, bytes int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[key]
	if !ok || s.faulted(key) {
		return nil, 0, false
	}
	return o.value, o.bytes, true
}

// NoteReads books n reads totalling bytes, as if Get had been called —
// the replay half of Peek, applied on the simulation thread.
//
//lint:effects books read accounting; the commit-side replay half of Peek
func (s *Store) NoteReads(n int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets += n
	s.bytesRead += bytes
}

// Has reports whether key exists without charging a read. Keys inside an
// injected read-fault window report absent, so the scheduler's planning
// view (missingShuffles) agrees with what the task resolver will see at
// the same virtual instant.
func (s *Store) Has(key string) bool {
	ok, _ := s.Probe([]byte(key))
	return ok
}

// Probe is Has for a key held in a byte slice (see AppendKey): it does
// not allocate unless a read-fault hook must be shown the key. volatile
// reports that the answer came from the read-fault hook's view of an
// existing object, which may change as virtual time advances; an
// absent key is absent at every instant until the presence log says
// otherwise.
func (s *Store) Probe(key []byte) (ok, volatile bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[string(key)]; !ok {
		return false, false
	}
	if s.readFault == nil {
		return true, false
	}
	return !s.readFault(string(key)), true
}

// Delete removes key at time now. Deleting a missing key is a no-op.
//
//lint:effects mutates dfs objects and occupancy accounting
func (s *Store) Delete(key string, now float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deleteLocked(key, now)
}

func (s *Store) deleteLocked(key string, now float64) {
	o, ok := s.objs[key]
	if !ok {
		return
	}
	s.advance(now)
	s.curBytes -= o.bytes * int64(s.cfg.ReplicationFactor)
	delete(s.objs, key)
	s.logChange(key)
	s.deletes++
}

// DeletePrefix removes every key with the given prefix (a "directory").
// It returns the number of objects removed.
//
//lint:effects mutates dfs objects and occupancy accounting
func (s *Store) DeletePrefix(prefix string, now float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var doomed []string
	for k := range s.objs {
		if strings.HasPrefix(k, prefix) {
			doomed = append(doomed, k)
		}
	}
	// Deterministic deletion order (flintlint maporder): today's Delete
	// only moves counters, but any future per-delete event or fault hook
	// must not observe map iteration order.
	sort.Strings(doomed)
	for _, k := range doomed {
		s.deleteLocked(k, now)
	}
	return len(doomed)
}

// Keys returns all keys with the given prefix in sorted order.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.objs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// WriteTime returns the virtual seconds one node needs to checkpoint
// bytes (logical size; replication inflates the transfer).
func (s *Store) WriteTime(bytes int64) float64 {
	return float64(bytes) * float64(s.cfg.ReplicationFactor) / s.cfg.WriteBW
}

// ReadTime returns the virtual seconds one node needs to read bytes back.
func (s *Store) ReadTime(bytes int64) float64 {
	return float64(bytes) / s.cfg.ReadBW
}

// Usage is a snapshot of storage accounting.
type Usage struct {
	CurrentBytes int64
	PeakBytes    int64
	BytesWritten int64
	BytesRead    int64
	Puts, Gets   int
	Deletes      int
	GBMonths     float64
	StorageCost  float64 // dollars
}

// UsageAt returns accounting as of time now.
func (s *Store) UsageAt(now float64) Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(now)
	const gb = float64(1 << 30)
	const month = 30 * simclock.Day
	gbMonths := s.byteSeconds / gb / month
	return Usage{
		CurrentBytes: s.curBytes,
		PeakBytes:    s.peakBytes,
		BytesWritten: s.bytesWritten,
		BytesRead:    s.bytesRead,
		Puts:         s.puts,
		Gets:         s.gets,
		Deletes:      s.deletes,
		GBMonths:     gbMonths,
		StorageCost:  gbMonths * s.cfg.PricePerGBMonth,
	}
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// Audit recomputes occupancy from the resident objects and checks it
// against the incrementally maintained accounting, returning the first
// inconsistency. Ground truth for the chaos invariant checkers: drift
// means a Put/Delete path lost or double-counted bytes.
func (s *Store) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for _, o := range s.objs {
		if o.bytes < 0 {
			return errors.New("dfs: negative object size")
		}
		sum += o.bytes * int64(s.cfg.ReplicationFactor)
	}
	if sum != s.curBytes {
		return fmt.Errorf("dfs: current bytes %d, objects hold %d", s.curBytes, sum)
	}
	if s.peakBytes < s.curBytes {
		return fmt.Errorf("dfs: peak %d below current %d", s.peakBytes, s.curBytes)
	}
	if s.byteSeconds < 0 {
		return fmt.Errorf("dfs: negative byte-seconds %g", s.byteSeconds)
	}
	if s.bytesWritten < s.curBytes {
		return fmt.Errorf("dfs: bytes written %d below current %d", s.bytesWritten, s.curBytes)
	}
	return nil
}
