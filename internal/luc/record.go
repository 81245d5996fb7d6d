package luc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sim/internal/catalog"
	"sim/internal/value"
)

// record is the in-memory form of one entity's stored state within a
// hierarchy: the set of role class ids plus the slot values of each role's
// section. It is the Mapper's "variable-format record" (§5.2): the format
// of the encoded record varies with the role set.
type record struct {
	roles  []int                 // sorted class ids
	single map[int]value.Value   // attr id → value (single DVAs and FK EVAs)
	multi  map[int][]value.Value // attr id → values (embedded MV DVAs)
}

func newRecord() *record {
	return &record{
		single: make(map[int]value.Value),
		multi:  make(map[int][]value.Value),
	}
}

func (r *record) hasRole(id int) bool {
	for _, rid := range r.roles {
		if rid == id {
			return true
		}
	}
	return false
}

func (r *record) addRole(id int) {
	if r.hasRole(id) {
		return
	}
	r.roles = append(r.roles, id)
	sort.Ints(r.roles)
}

func (r *record) removeRole(id int) {
	for i, rid := range r.roles {
		if rid == id {
			r.roles = append(r.roles[:i], r.roles[i+1:]...)
			return
		}
	}
}

// encodeSection appends the slot values of one class section.
func (m *Mapper) encodeSection(dst []byte, cl *catalog.Class, r *record) []byte {
	for _, s := range m.slots[cl] {
		switch s.kind {
		case slotSingle, slotFK:
			dst = value.Append(dst, r.single[s.attr.ID])
		case slotMulti:
			vals := r.multi[s.attr.ID]
			dst = binary.AppendUvarint(dst, uint64(len(vals)))
			for _, v := range vals {
				dst = value.Append(dst, v)
			}
		}
	}
	return dst
}

func (m *Mapper) decodeSection(b []byte, cl *catalog.Class, r *record) ([]byte, error) {
	var err error
	for _, s := range m.slots[cl] {
		switch s.kind {
		case slotSingle, slotFK:
			var v value.Value
			v, b, err = value.Decode(b)
			if err != nil {
				return nil, fmt.Errorf("luc: record of %s, attr %s: %w", cl.Name, s.attr.Name, err)
			}
			if !v.IsNull() {
				r.single[s.attr.ID] = v
			}
		case slotMulti:
			n, used := binary.Uvarint(b)
			if used <= 0 {
				return nil, fmt.Errorf("luc: record of %s, attr %s: bad count", cl.Name, s.attr.Name)
			}
			b = b[used:]
			vals := make([]value.Value, 0, n)
			for i := uint64(0); i < n; i++ {
				var v value.Value
				v, b, err = value.Decode(b)
				if err != nil {
					return nil, fmt.Errorf("luc: record of %s, attr %s[%d]: %w", cl.Name, s.attr.Name, i, err)
				}
				vals = append(vals, v)
			}
			if len(vals) > 0 {
				r.multi[s.attr.ID] = vals
			}
		}
	}
	return b, nil
}

// encodeRecord serializes a full single-record-strategy record:
// role count, role ids, then each role's section in ascending class id.
func (m *Mapper) encodeRecord(base *catalog.Class, r *record) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(r.roles)))
	for _, id := range r.roles {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	for _, id := range r.roles {
		dst = m.encodeSection(dst, m.classByID(id), r)
	}
	return dst
}

func (m *Mapper) decodeRecord(base *catalog.Class, b []byte) (*record, error) {
	r := newRecord()
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, fmt.Errorf("luc: corrupt record header in hierarchy %s", base.Name)
	}
	b = b[used:]
	for i := uint64(0); i < n; i++ {
		id, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("luc: corrupt role list in hierarchy %s", base.Name)
		}
		b = b[used:]
		r.roles = append(r.roles, int(id))
	}
	var err error
	for _, id := range r.roles {
		cl := m.classByID(id)
		if cl == nil {
			return nil, fmt.Errorf("luc: record names unknown class id %d", id)
		}
		b, err = m.decodeSection(b, cl, r)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (m *Mapper) classByID(id int) *catalog.Class {
	classes := m.cat.Classes()
	if id < 0 || id >= len(classes) {
		return nil
	}
	return classes[id]
}

// readRecord is the read-path variant of loadRecord with a small sharded
// cache; mutators use loadRecord directly since they modify the returned
// record in place before storeRecord (which invalidates the cache entry).
// Cached records are shared across concurrent queries and must never be
// mutated by readers.
//
// The cache is stamp-exact: an entry serves only readers observing the
// same commit stamp it was decoded at, so every commit implicitly
// invalidates it. Only snapshot views use the cache — the live mapper
// runs inside write transactions, where a fill could capture uncommitted
// state under a published stamp and a hit would hide the transaction's
// own uncommitted writes behind the committed record.
func (m *Mapper) readRecord(base *catalog.Class, s value.Surrogate) (*record, error) {
	if m.snap == nil {
		return m.loadRecord(base, s)
	}
	key := rcKey{base.ID, s}
	stamp := m.snap.Stamp()
	sh := m.rc.shardOf(s)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok && e.stamp == stamp {
		m.rc.hits.Add(1)
		return e.rec, nil
	}
	m.rc.misses.Add(1)
	r, err := m.loadRecord(base, s)
	if err != nil {
		return nil, err
	}
	// Concurrent readers may race to fill the same key with equal decoded
	// contents; last write wins.
	sh.mu.Lock()
	if len(sh.m) >= rcacheCap/rcShards {
		sh.m = make(map[rcKey]rcEntry, rcacheCap/rcShards)
	}
	sh.m[key] = rcEntry{rec: r, stamp: stamp}
	sh.mu.Unlock()
	return r, nil
}

// readSection reads just one class's section of an entity (plus the
// surrounding record under the single-record strategy, where sections are
// not separable). found reports whether the entity holds the class's role.
func (m *Mapper) readSection(cl *catalog.Class, s value.Surrogate) (*record, bool, error) {
	if m.hier[cl.Base] == HierarchySingleRecord {
		r, err := m.readRecord(cl.Base, s)
		if err != nil || r == nil {
			return nil, false, err
		}
		return r, r.hasRole(cl.ID), nil
	}
	st, err := m.classStructure(cl)
	if err != nil {
		return nil, false, err
	}
	raw, found, err := st.Get(value.AppendSurrogateKey(nil, s))
	if err != nil || !found {
		return nil, false, err
	}
	r := newRecord()
	r.roles = []int{cl.ID}
	if _, err := m.decodeSection(raw, cl, r); err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// loadRecord reads an entity's record. For the split strategy it assembles
// the record from the per-class structures (each holding one section).
func (m *Mapper) loadRecord(base *catalog.Class, s value.Surrogate) (*record, error) {
	key := value.AppendSurrogateKey(nil, s)
	if m.hier[base] == HierarchySingleRecord {
		st, err := m.hierStructure(base)
		if err != nil {
			return nil, err
		}
		raw, found, err := st.Get(key)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, nil
		}
		return m.decodeRecord(base, raw)
	}
	// Split strategy: probe each class structure of the hierarchy.
	r := newRecord()
	for _, cl := range catalog.HierarchyClasses(base) {
		st, err := m.classStructure(cl)
		if err != nil {
			return nil, err
		}
		raw, found, err := st.Get(key)
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		r.roles = append(r.roles, cl.ID)
		if _, err := m.decodeSection(raw, cl, r); err != nil {
			return nil, err
		}
	}
	if len(r.roles) == 0 {
		return nil, nil
	}
	sort.Ints(r.roles)
	return r, nil
}

// storeRecord writes an entity's record. prevRoles lists the roles present
// before the update so the split strategy can delete abandoned sections.
func (m *Mapper) storeRecord(base *catalog.Class, s value.Surrogate, r *record, prevRoles []int) error {
	sh := m.rc.shardOf(s)
	sh.mu.Lock()
	delete(sh.m, rcKey{base.ID, s})
	sh.mu.Unlock()
	key := value.AppendSurrogateKey(nil, s)
	if m.hier[base] == HierarchySingleRecord {
		st, err := m.hierStructure(base)
		if err != nil {
			return err
		}
		if len(r.roles) == 0 {
			_, err := st.Delete(key)
			return err
		}
		return st.Put(key, m.encodeRecord(base, r))
	}
	for _, cl := range catalog.HierarchyClasses(base) {
		st, err := m.classStructure(cl)
		if err != nil {
			return err
		}
		if r.hasRole(cl.ID) {
			if err := st.Put(key, m.encodeSection(nil, cl, r)); err != nil {
				return err
			}
		} else {
			had := false
			for _, id := range prevRoles {
				if id == cl.ID {
					had = true
					break
				}
			}
			if had {
				if _, err := st.Delete(key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
