package phr

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"typepre/internal/hybrid"
)

// bulkWorkload materializes the shared bulk-disclosure fixture.
func bulkWorkload(t *testing.T, n int) (*Workload, *Proxy, string, string) {
	t.Helper()
	f, err := NewBulkFixture(n)
	if err != nil {
		t.Fatal(err)
	}
	return f.Workload, f.Proxy, f.PatientID, f.RequesterID
}

// TestDiscloseCategoryMatchesPerRecord pins the worker-pool bulk path to
// the single-record path: same record order, byte-identical plaintexts
// after delegatee decryption.
func TestDiscloseCategoryMatchesPerRecord(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 24)
	key := w.Requesters[requester]

	bulk, err := proxy.DiscloseCategory(w.Service.Store, patient, CategoryEmergency, requester)
	if err != nil {
		t.Fatal(err)
	}
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)
	if len(bulk) != 24 || len(recs) != 24 {
		t.Fatalf("bulk=%d records=%d, want 24", len(bulk), len(recs))
	}
	for i, rec := range recs {
		want := w.Bodies[rec.ID]
		single, err := proxy.Disclose(w.Service.Store, rec.ID, requester)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		gotB, err := hybrid.DecryptReEncrypted(key, bulk[i])
		if err != nil {
			t.Fatalf("bulk item %d: %v", i, err)
		}
		gotS, err := hybrid.DecryptReEncrypted(key, single)
		if err != nil {
			t.Fatalf("single item %d: %v", i, err)
		}
		if !bytes.Equal(gotB, want) || !bytes.Equal(gotS, want) {
			t.Fatalf("item %d: plaintext mismatch (order broken?)", i)
		}
	}
}

// TestDiscloseCategoryStreamOrderAndAudit checks ordered emission and the
// per-record granted audit entries of the streaming path.
func TestDiscloseCategoryStreamOrderAndAudit(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 8)
	key := w.Requesters[requester]
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)
	before := proxy.Audit().Len()

	i := 0
	err := proxy.DiscloseCategoryStream(w.Service.Store, patient, CategoryEmergency, requester,
		func(rct *hybrid.ReCiphertext) error {
			got, err := hybrid.DecryptReEncrypted(key, rct)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, w.Bodies[recs[i].ID]) {
				t.Fatalf("stream item %d out of order", i)
			}
			i++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if i != 8 {
		t.Fatalf("stream yielded %d items, want 8", i)
	}
	granted := 0
	for _, e := range proxy.Audit().Entries()[before:] {
		if e.Outcome == OutcomeGranted {
			granted++
		}
	}
	if granted != 8 {
		t.Fatalf("audit logged %d granted entries, want 8", granted)
	}

	// A consumer cancelling the stream is not a proxy error: the records
	// delivered so far stay audited as granted, nothing else is logged.
	before = proxy.Audit().Len()
	stop := errors.New("client went away")
	err = proxy.DiscloseCategoryStream(w.Service.Store, patient, CategoryEmergency, requester,
		func(*hybrid.ReCiphertext) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want the consumer error", err)
	}
	for _, e := range proxy.Audit().Entries()[before:] {
		if e.Outcome == OutcomeError {
			t.Fatalf("consumer cancel audited as proxy error: %+v", e)
		}
	}
}

// TestDiscloseCategoryNoGrant keeps the denial semantics: error,
// no results, one no-grant audit entry.
func TestDiscloseCategoryNoGrant(t *testing.T) {
	w, proxy, patient, _ := bulkWorkload(t, 4)
	before := proxy.Audit().Len()
	_, err := proxy.DiscloseCategory(w.Service.Store, patient, CategoryEmergency, "eve@outside.example")
	if !errors.Is(err, ErrNoGrant) {
		t.Fatalf("got %v, want ErrNoGrant", err)
	}
	entries := proxy.Audit().Entries()[before:]
	if len(entries) != 1 || entries[0].Outcome != OutcomeNoGrant {
		t.Fatalf("audit after denial = %+v", entries)
	}
}

// TestDiscloseCategoryConcurrentRequesters runs bulk disclosures
// from several goroutines against one proxy — race coverage for the pool,
// the grant table, the store, and the audit log together.
func TestDiscloseCategoryConcurrentRequesters(t *testing.T) {
	w, proxy, patient, requester := bulkWorkload(t, 16)
	key := w.Requesters[requester]
	recs := mustList(t, w.Service.Store, patient, CategoryEmergency)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rcts, err := proxy.DiscloseCategory(w.Service.Store, patient, CategoryEmergency, requester)
			if err != nil {
				errs <- err
				return
			}
			for i, rct := range rcts {
				got, err := hybrid.DecryptReEncrypted(key, rct)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, w.Bodies[recs[i].ID]) {
					errs <- errors.New("concurrent bulk disclosure: order broken")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
