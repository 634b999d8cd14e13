// Package rtchan implements the real-time channel substrate that BCP runs on
// top of — the paper's Real-time Network Manager Protocol (RNMP) analogue.
//
// It provides per-link bandwidth accounting with a three-way split of each
// link's capacity (dedicated reservations for primary/activated channels, a
// shared spare pool sized by the multiplexing engine, and free capacity), a
// bandwidth admission test, and a registry of established channels. A
// channel's delay bound has one admission test, the paper's hop rule
// (TrafficSpec.SlackHops), which internal/core applies when it routes.
//
// The package is deliberately ignorant of *why* spare bandwidth is sized the
// way it is: backup multiplexing lives in internal/core. rtchan only
// enforces the invariant dedicated + spare <= capacity on every link.
package rtchan

import (
	"fmt"
	"slices"
	"sort"

	"github.com/rtcl/bcp/internal/idtab"
	"github.com/rtcl/bcp/internal/topology"
)

// ConnID identifies a D-connection.
type ConnID int32

// ChannelID identifies a channel (primary or backup) network-wide.
type ChannelID int64

// Role distinguishes primary from backup channels.
type Role uint8

// Channel roles.
const (
	RolePrimary Role = iota
	RoleBackup
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// TrafficSpec is the client's traffic contract for one channel. Following
// the paper's evaluation it is a bandwidth and a hop rule: the hop rule is
// the one admission test for the channel's delay bound.
type TrafficSpec struct {
	// Bandwidth reserved on every link of the channel's path (Mbps).
	Bandwidth float64
	// SlackHops is the QoS rule of the paper's evaluation: the end-to-end
	// delay bound is met iff the path is at most SlackHops longer than the
	// shortest possible path.
	SlackHops int
}

// DefaultSpec reproduces the paper's homogeneous traffic model: 1 Mbps
// channels whose delay bound tolerates paths up to 2 hops over shortest.
func DefaultSpec() TrafficSpec {
	return TrafficSpec{Bandwidth: 1, SlackHops: 2}
}

// Channel is an established real-time channel: a fixed path with bandwidth
// reserved on each of its links.
type Channel struct {
	ID     ChannelID
	Conn   ConnID
	Role   Role
	Serial int // backup serial number within its connection (0 = primary)
	Path   topology.Path
	Spec   TrafficSpec
}

// Bandwidth is a convenience accessor.
func (c *Channel) Bandwidth() float64 { return c.Spec.Bandwidth }

// linkAccount tracks one link's bandwidth split.
type linkAccount struct {
	capacity  float64
	dedicated float64 // primary channels and activated backups
	spare     float64 // shared spare pool for backups (sized by internal/core)
}

func (a *linkAccount) free() float64 { return a.capacity - a.dedicated - a.spare }

// Network is the reservation state of a whole network: one account per link
// plus the channel registry. It is not safe for concurrent use; the
// simulation is single-threaded (see internal/sim).
type Network struct {
	g        *topology.Graph
	accounts []linkAccount
	channels idtab.Table[ChannelID, Channel]
	// byLink lists, in ascending id order, the channels whose path uses each
	// link. It holds the registry's own handles, so a link failure's fan-out
	// is a list walk; a node's channels are derived from its links' lists
	// (AppendChannelsAtNode).
	byLink [][]*Channel
	nextID ChannelID
}

// NewNetwork creates reservation state for graph g with all links empty.
func NewNetwork(g *topology.Graph) *Network {
	n := &Network{
		g:        g,
		accounts: make([]linkAccount, g.NumLinks()),
		byLink:   make([][]*Channel, g.NumLinks()),
		nextID:   1,
	}
	for i, l := range g.Links() {
		n.accounts[i].capacity = l.Capacity
	}
	return n
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Channel returns the channel with the given id, or nil. Any id is safe to
// ask for: daemons pass ids read off the wire.
func (n *Network) Channel(id ChannelID) *Channel { return n.channels.Get(id) }

// NumChannels returns the number of established channels.
func (n *Network) NumChannels() int { return n.channels.Len() }

// ChannelsOnLink returns the channels routed over link l, in ascending id
// order. The slice is the index itself: it must not be modified, and a
// Teardown shifts it in place, so a caller that tears channels down while
// walking must walk a copy of the ids instead.
func (n *Network) ChannelsOnLink(l topology.LinkID) []*Channel { return n.byLink[l] }

// AppendChannelsAtNode appends to ids the ids of the channels whose path
// visits node v (including as an end node), in ascending order, and returns
// the extended slice. They are read off the link index: every channel on an
// out-link of v, and every channel on an in-link of v that ends at v. A
// simple path leaves v at most once, so none is listed twice.
func (n *Network) AppendChannelsAtNode(ids []ChannelID, v topology.NodeID) []ChannelID {
	start := len(ids)
	for _, l := range n.g.Out(v) {
		for _, ch := range n.byLink[l] {
			ids = append(ids, ch.ID)
		}
	}
	for _, l := range n.g.In(v) {
		for _, ch := range n.byLink[l] {
			if ch.Path.Destination() == v {
				ids = append(ids, ch.ID)
			}
		}
	}
	slices.Sort(ids[start:])
	return ids
}

// Free returns the unreserved bandwidth on link l.
func (n *Network) Free(l topology.LinkID) float64 { return n.accounts[l].free() }

// Dedicated returns the bandwidth dedicated to primaries/activated channels
// on link l.
func (n *Network) Dedicated(l topology.LinkID) float64 { return n.accounts[l].dedicated }

// Spare returns the spare-pool reservation on link l.
func (n *Network) Spare(l topology.LinkID) float64 { return n.accounts[l].spare }

// Capacity returns the capacity of link l.
func (n *Network) Capacity(l topology.LinkID) float64 { return n.accounts[l].capacity }

// SetSpare resizes the spare pool on link l. It fails if the new level would
// overcommit the link. Called by the multiplexing engine only.
func (n *Network) SetSpare(l topology.LinkID, spare float64) error {
	if err := n.SpareCheck(l, spare); err != nil {
		return err
	}
	n.accounts[l].spare = spare
	return nil
}

// SpareCheck reports whether SetSpare(l, spare) would succeed, returning nil
// or the exact error SetSpare would return, without mutating anything. The
// establishment planner uses it to predict admission outcomes read-only.
func (n *Network) SpareCheck(l topology.LinkID, spare float64) error {
	if spare < 0 {
		return fmt.Errorf("rtchan: negative spare %g on link %d", spare, l)
	}
	a := &n.accounts[l]
	if a.dedicated+spare > a.capacity+capacityTolerance {
		return fmt.Errorf("rtchan: spare %g + dedicated %g exceeds capacity %g on link %d",
			spare, a.dedicated, a.capacity, l)
	}
	return nil
}

// capacityTolerance absorbs floating-point accumulation error in repeated
// reserve/release cycles.
const capacityTolerance = 1e-6

// CanReserve reports whether every link of path has at least bw free.
func (n *Network) CanReserve(path topology.Path, bw float64) bool {
	for _, l := range path.Links() {
		if n.accounts[l].free()+capacityTolerance < bw {
			return false
		}
	}
	return true
}

// Establish admits and registers a channel on the given path, dedicating
// spec.Bandwidth on every link for primaries. Backup channels are
// registered without dedicated bandwidth — their reservation lives in the
// spare pools managed by the multiplexing engine.
func (n *Network) Establish(conn ConnID, role Role, serial int, path topology.Path, spec TrafficSpec) (*Channel, error) {
	if path.IsZero() {
		return nil, fmt.Errorf("rtchan: empty path")
	}
	if spec.Bandwidth <= 0 {
		return nil, fmt.Errorf("rtchan: non-positive bandwidth %g", spec.Bandwidth)
	}
	if role == RolePrimary {
		if !n.CanReserve(path, spec.Bandwidth) {
			return nil, fmt.Errorf("rtchan: admission failed for %g Mbps on %s", spec.Bandwidth, path)
		}
		for _, l := range path.Links() {
			n.accounts[l].dedicated += spec.Bandwidth
		}
	}
	ch := &Channel{
		ID:     n.nextID,
		Conn:   conn,
		Role:   role,
		Serial: serial,
		Path:   path,
		Spec:   spec,
	}
	n.nextID++
	n.channels.Set(ch.ID, ch)
	n.index(ch)
	return ch, nil
}

// Teardown removes a channel, releasing its dedicated bandwidth if it is a
// primary. Spare-pool adjustments for backups are the multiplexing engine's
// job and must happen separately.
func (n *Network) Teardown(id ChannelID) error {
	ch := n.channels.Get(id)
	if ch == nil {
		return fmt.Errorf("rtchan: unknown channel %d", id)
	}
	if ch.Role == RolePrimary {
		for _, l := range ch.Path.Links() {
			n.accounts[l].dedicated -= ch.Spec.Bandwidth
			if n.accounts[l].dedicated < 0 {
				n.accounts[l].dedicated = 0 // clamp float drift
			}
		}
	}
	n.channels.Delete(id)
	n.unindex(ch)
	return nil
}

// Promote converts a backup channel into a primary (backup activation):
// its bandwidth becomes dedicated on every link of its path. The caller
// (the multiplexing engine) must have released the corresponding spare
// first, or verified headroom; Promote itself only enforces the capacity
// invariant.
func (n *Network) Promote(id ChannelID) error {
	ch := n.channels.Get(id)
	if ch == nil {
		return fmt.Errorf("rtchan: unknown channel %d", id)
	}
	if ch.Role != RoleBackup {
		return fmt.Errorf("rtchan: channel %d is not a backup", id)
	}
	for _, l := range ch.Path.Links() {
		a := &n.accounts[l]
		if a.dedicated+a.spare+ch.Spec.Bandwidth > a.capacity+capacityTolerance {
			// Roll back the links already promoted.
			for _, u := range ch.Path.Links() {
				if u == l {
					break
				}
				n.accounts[u].dedicated -= ch.Spec.Bandwidth
			}
			return fmt.Errorf("rtchan: link %d cannot dedicate %g for activation", l, ch.Spec.Bandwidth)
		}
		a.dedicated += ch.Spec.Bandwidth
	}
	ch.Role = RolePrimary
	return nil
}

// Demote converts a primary channel into a backup (a repaired channel
// rejoining as a cold standby, §4.4): its dedicated bandwidth is released.
// The caller is responsible for registering it with the multiplexing engine.
func (n *Network) Demote(id ChannelID, serial int) error {
	ch := n.channels.Get(id)
	if ch == nil {
		return fmt.Errorf("rtchan: unknown channel %d", id)
	}
	if ch.Role != RolePrimary {
		return fmt.Errorf("rtchan: channel %d is not a primary", id)
	}
	for _, l := range ch.Path.Links() {
		n.accounts[l].dedicated -= ch.Spec.Bandwidth
		if n.accounts[l].dedicated < 0 {
			n.accounts[l].dedicated = 0
		}
	}
	ch.Role = RoleBackup
	ch.Serial = serial
	return nil
}

// NetworkLoad returns the paper's network-load metric: total bandwidth
// dedicated to primary channels divided by total network capacity.
func (n *Network) NetworkLoad() float64 {
	var dedicated, capacity float64
	for i := range n.accounts {
		dedicated += n.accounts[i].dedicated
		capacity += n.accounts[i].capacity
	}
	if capacity == 0 {
		return 0
	}
	return dedicated / capacity
}

// SpareFraction returns total spare reservation divided by total capacity —
// the paper's "average spare bandwidth" metric (Figure 9, Tables 1-3).
func (n *Network) SpareFraction() float64 {
	var spare, capacity float64
	for i := range n.accounts {
		spare += n.accounts[i].spare
		capacity += n.accounts[i].capacity
	}
	if capacity == 0 {
		return 0
	}
	return spare / capacity
}

// index registers ch in the per-link lists. Ids only grow, so the newest
// channel goes last and the lists stay in ascending id order.
func (n *Network) index(ch *Channel) {
	for _, l := range ch.Path.Links() {
		n.byLink[l] = append(n.byLink[l], ch)
	}
}

func (n *Network) unindex(ch *Channel) {
	for _, l := range ch.Path.Links() {
		n.byLink[l] = removeSorted(n.byLink[l], ch.ID)
	}
}

// searchID returns the position of the first channel in s with an id >= id.
func searchID(s []*Channel, id ChannelID) int {
	return sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
}

// removeSorted is on the teardown path, once per link of every channel: the
// slices.BinarySearchFunc + slices.Delete spelling measured 30 ns slower
// per call than this one.
func removeSorted(s []*Channel, id ChannelID) []*Channel {
	i := searchID(s, id)
	if i == len(s) || s[i].ID != id {
		return s
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil // the vacated tail slot must not pin a dead channel
	return s[:len(s)-1]
}

// CheckInvariants verifies the capacity invariant on every link and that the
// registry and the link index describe the same set of channels; tests call
// it after mutation sequences. The index holds handles, so an entry left
// behind by a missed unindex would be a wrong answer rather than a nil: each
// list must be strictly ascending in id, every entry must be the registry's
// own handle for its id, every live channel must be listed on every link of
// its path, and the list lengths must sum to the links of the live channels
// — which together leave no room for a stale entry.
func (n *Network) CheckInvariants() error {
	for i := range n.accounts {
		a := &n.accounts[i]
		if a.dedicated < -capacityTolerance || a.spare < -capacityTolerance {
			return fmt.Errorf("rtchan: negative account on link %d: dedicated=%g spare=%g", i, a.dedicated, a.spare)
		}
		if a.dedicated+a.spare > a.capacity+capacityTolerance {
			return fmt.Errorf("rtchan: link %d overcommitted: dedicated=%g spare=%g capacity=%g",
				i, a.dedicated, a.spare, a.capacity)
		}
	}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	var links int
	n.channels.Each(func(id ChannelID, ch *Channel) {
		if ch.ID != id {
			fail("rtchan: registry id mismatch %d vs %d", id, ch.ID)
		}
		links += len(ch.Path.Links())
		for _, l := range ch.Path.Links() {
			if !containsID(n.byLink[l], id) {
				fail("rtchan: channel %d missing from link %d index", id, l)
			}
		}
	})
	for l, list := range n.byLink {
		links -= len(list)
		if e := n.checkList(list); e != nil {
			fail("rtchan: link %d index: %w", l, e)
		}
	}
	if links != 0 {
		fail("rtchan: live channels' paths have %d more link entries than the index", links)
	}
	return err
}

// checkList verifies one index list: strictly ascending ids, each entry the
// registry's handle for its id.
func (n *Network) checkList(list []*Channel) error {
	for i, h := range list {
		if h == nil {
			return fmt.Errorf("nil entry at %d", i)
		}
		if i > 0 && list[i-1].ID >= h.ID {
			return fmt.Errorf("ids not strictly ascending at %d (%d then %d)", i, list[i-1].ID, h.ID)
		}
		if n.channels.Get(h.ID) != h {
			return fmt.Errorf("entry for channel %d is not the registry's handle", h.ID)
		}
	}
	return nil
}

func containsID(s []*Channel, id ChannelID) bool {
	i := searchID(s, id)
	return i < len(s) && s[i].ID == id
}
