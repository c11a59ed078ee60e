package storage

import "fmt"

// HeapFile stores records of one table in an unordered sequence of slotted
// pages. Inserts fill the last page and allocate a new one when full (the
// benchmark load is append-only, matching the paper's bulk-loaded database).
type HeapFile struct {
	bp   *BufferPool
	file FileID
	// tr, when non-nil, is the running query's private I/O simulation: every
	// page pin and unpin this view performs is mirrored into it, charging the
	// query for the accesses that would have missed a cold private pool. The
	// zero value (catalog-held heap files) performs no per-query accounting;
	// queries access tables through WithTracker views.
	tr *IOTracker
}

// NewHeapFile creates a heap file backed by a fresh disk file.
func NewHeapFile(bp *BufferPool) *HeapFile {
	return &HeapFile{bp: bp, file: bp.disk.CreateFile()}
}

// WithTracker returns a view of the heap file whose page accesses are
// additionally recorded in tr (nil returns the untracked file itself). The
// view shares the underlying file and buffer pool; only accounting differs.
func (h *HeapFile) WithTracker(tr *IOTracker) *HeapFile {
	if tr == nil {
		return h
	}
	v := *h
	v.tr = tr
	return &v
}

// fetch pins page p through the shared pool, mirroring a successful pin into
// the query's I/O simulation.
func (h *HeapFile) fetch(p PageID) (*Page, error) {
	pg, err := h.bp.Fetch(h.file, p)
	if err == nil && h.tr != nil {
		h.tr.OnFetch(h.file, p)
	}
	return pg, err
}

// unpin releases one pin, mirroring it into the query's I/O simulation.
func (h *HeapFile) unpin(p PageID, dirty bool) {
	h.bp.Unpin(h.file, p, dirty)
	if h.tr != nil {
		h.tr.OnUnpin(h.file, p, dirty)
	}
}

// newPage allocates and pins a fresh page, mirroring the (resident, dirty)
// pin into the query's I/O simulation. The caller inherits the pin.
func (h *HeapFile) newPage() (PageID, *Page, error) {
	pid, pg, err := h.bp.NewPage(h.file)
	if err == nil && h.tr != nil {
		h.tr.OnNewPage(h.file, pid)
	}
	return pid, pg, err
}

// FileID returns the underlying disk file id.
func (h *HeapFile) FileID() FileID { return h.file }

// NumPages returns the current number of pages.
func (h *HeapFile) NumPages() int { return h.bp.disk.NumPages(h.file) }

// Insert appends rec and returns its TID: an Appender's one-record case.
func (h *HeapFile) Insert(rec []byte) (TID, error) {
	a := Appender{h: h}
	defer a.Close()
	return a.Add(rec)
}

// Appender adds records at the end of a heap file with its tail page pinned
// from one record to the next: a bulk load pins each page once, and leaves
// the pages, TIDs and (after Close) pool state of a loop of Inserts. Not safe
// for concurrent use, nor beside other writers.
type Appender struct {
	h     *HeapFile
	pg    *Page // the pinned tail page, nil while none is pinned
	pid   PageID
	dirty bool
}

// Append returns an appender at the end of h; Close must follow.
func (h *HeapFile) Append() *Appender { return &Appender{h: h} }

// Add appends rec, opening a new page when rec does not fit on the tail.
func (a *Appender) Add(rec []byte) (TID, error) {
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return TID{}, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	if a.pg == nil {
		if n := a.h.NumPages(); n > 0 {
			pg, err := a.h.fetch(PageID(n - 1))
			if err != nil {
				return TID{}, err
			}
			a.pg, a.pid = pg, PageID(n-1)
		}
	}
	if a.pg != nil && !a.pg.HasSpace(len(rec)) {
		a.Close()
	}
	if a.pg == nil {
		pid, pg, err := a.h.newPage()
		if err != nil {
			return TID{}, err
		}
		a.pg, a.pid = pg, pid
	}
	slot, err := a.pg.Insert(rec)
	if err != nil {
		return TID{}, err
	}
	a.dirty = true
	return TID{Page: a.pid, Slot: slot}, nil
}

// Close unpins the tail page; a later Add pins it anew.
func (a *Appender) Close() {
	if a.pg != nil {
		a.h.unpin(a.pid, a.dirty)
		a.pg, a.dirty = nil, false
	}
}

// Get copies the record at tid into a fresh slice.
func (h *HeapFile) Get(tid TID) ([]byte, error) {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return nil, err
	}
	defer h.unpin(tid.Page, false)
	rec, ok := pg.Get(tid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no record at %s", tid)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// View calls fn with the record at tid while its page stays pinned,
// avoiding Get's defensive copy. The record bytes alias page memory and
// must not be retained after fn returns. Page I/O is accounted exactly as
// in Get (one Fetch, one Unpin).
func (h *HeapFile) View(tid TID, fn func(rec []byte) error) error {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return err
	}
	defer h.unpin(tid.Page, false)
	rec, ok := pg.Get(tid.Slot)
	if !ok {
		return fmt.Errorf("storage: no record at %s", tid)
	}
	return fn(rec)
}

// Scan returns an iterator over all live records in file order.
func (h *HeapFile) Scan() *HeapIter {
	return &HeapIter{h: h, page: 0, slot: 0, n: h.NumPages()}
}

// ScanRange returns an iterator over the live records of pages
// [start, end) in file order — one partition of a range-partitioned
// parallel scan. Bounds are clamped to the file's current extent.
func (h *HeapFile) ScanRange(start, end int) *HeapIter {
	if n := h.NumPages(); end > n {
		end = n
	}
	if start < 0 {
		start = 0
	}
	if start > end {
		start = end
	}
	return &HeapIter{h: h, start: PageID(start), page: PageID(start), slot: 0, n: end}
}

// HeapIter iterates a heap file page by page, slot by slot. It pins one page
// at a time, producing sequential physical reads for cold scans.
type HeapIter struct {
	h       *HeapFile
	start   PageID
	page    PageID
	slot    SlotID
	n       int
	cur     *Page
	curPage PageID
	done    bool
}

// Next returns the next live record and its TID, copying the record out of
// page memory. ok=false means the scan is exhausted (or an error occurred;
// see Err).
func (it *HeapIter) Next() (rec []byte, tid TID, ok bool, err error) {
	ref, tid, ok, err := it.NextRef()
	if !ok || err != nil {
		return nil, tid, ok, err
	}
	out := make([]byte, len(ref))
	copy(out, ref)
	return out, tid, true, nil
}

// NextRef returns the next live record without copying: the returned slice
// aliases the iterator's pinned page and is valid only until the next
// NextRef/Next/NextPage/Close call. Batched scans decode straight from page
// memory through it, skipping the per-record copy Next performs.
func (it *HeapIter) NextRef() (rec []byte, tid TID, ok bool, err error) {
	for {
		if it.cur == nil {
			if _, _, ok, err := it.NextPage(); !ok {
				return nil, TID{}, false, err
			}
		}
		for int(it.slot) < it.cur.NumSlots() {
			rec, live := it.cur.Get(it.slot)
			s := it.slot
			it.slot++
			if live {
				return rec, TID{Page: it.curPage, Slot: s}, true, nil
			}
		}
		it.release()
	}
}

// NextPage pins the scan's next page and returns it, unpinning the one
// before (whatever NextRef had left of it unread is skipped): the scan loop
// that walks a page's slots itself pays one call per page, not one per
// record. The page is valid only until the next NextPage/NextRef/Close
// call; ok=false means the scan is exhausted or the fetch failed.
func (it *HeapIter) NextPage() (pg *Page, id PageID, ok bool, err error) {
	it.release()
	if it.done || int(it.page) >= it.n {
		it.done = true
		return nil, 0, false, nil
	}
	if pg, err = it.h.fetch(it.page); err != nil {
		it.done = true
		return nil, 0, false, err
	}
	it.cur, it.curPage, it.slot = pg, it.page, 0
	return pg, it.page, true, nil
}

// release unpins the current page, if any, and steps past it.
func (it *HeapIter) release() {
	if it.cur != nil {
		it.h.unpin(it.curPage, false)
		it.cur = nil
		it.page++
	}
}

// Close releases the iterator's pinned page, if any.
func (it *HeapIter) Close() {
	it.release()
	it.done = true
}

// Rewind releases the iterator's pinned page, if any, and starts it over at
// the first page of its range: a scan read again reuses its iterator.
func (it *HeapIter) Rewind() {
	it.release()
	it.page, it.slot, it.done = it.start, 0, false
}

// Delete marks the record at tid dead. Space is not compacted; scans skip
// dead slots.
func (h *HeapFile) Delete(tid TID) error {
	pg, err := h.fetch(tid.Page)
	if err != nil {
		return err
	}
	ok := pg.Delete(tid.Slot)
	h.unpin(tid.Page, ok)
	if !ok {
		return fmt.Errorf("storage: no record at %s", tid)
	}
	return nil
}
