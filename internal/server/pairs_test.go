package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// joinResponseMirror is JoinResponseWire with a plain [][2]int32 pair list:
// encoding/json's output for it is the reference for the handler's body.
type joinResponseMirror struct {
	Epoch   uint64     `json:"epoch"`
	Count   int        `json:"count"`
	Retries int        `json:"retries,omitempty"`
	Pairs   [][2]int32 `json:"pairs,omitempty"`
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sortedBrutePairs is the model answer in wire form, sorted by (R, S) with
// sort.Slice rather than the handler's join.SortPairs.
func sortedBrutePairs(rItems, sItems []rtree.Item) [][2]int32 {
	var out [][2]int32
	for p := range brutePairs(rItems, sItems) {
		out = append(out, [2]int32{p.R, p.S})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestJoinBodyMatchesEncodingJSON is the byte-identity wall for POST /join:
// the hand-written body must equal json.Encoder's output for the mirror
// struct — with pairs, with a nonzero retry count, with pairs discarded, and
// with no pairs at all.
func TestJoinBodyMatchesEncodingJSON(t *testing.T) {
	join := func(t *testing.T, h http.Handler, req JoinRequestWire) []byte {
		t.Helper()
		w := doHTTP(t, h, "POST", "/join", req)
		if w.Code != http.StatusOK {
			t.Fatalf("join: %d %s", w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	check := func(t *testing.T, got []byte, want joinResponseMirror) {
		t.Helper()
		if ref := encodeJSON(t, want); !bytes.Equal(got, ref) {
			t.Fatalf("body differs from encoding/json:\n got %.200q\nwant %.200q", got, ref)
		}
	}

	t.Run("pairs", func(t *testing.T) {
		fx := newFixture(t, Config{})
		h := NewHandler(fx.srv, HandlerConfig{})
		pairs := sortedBrutePairs(fx.rItems, fx.sItems)
		epoch := fx.srv.Coverage().Epoch
		for _, workers := range []int{0, 4} {
			got := join(t, h, JoinRequestWire{Workers: workers})
			check(t, got, joinResponseMirror{Epoch: epoch, Count: len(pairs), Pairs: pairs})
		}
		got := join(t, h, JoinRequestWire{DiscardPairs: true})
		check(t, got, joinResponseMirror{Epoch: epoch, Count: len(pairs)})
	})

	t.Run("retries", func(t *testing.T) {
		// Every read fails until the first backoff sleep clears the fault,
		// so the join succeeds on its second attempt.
		var fx *fixture
		fx = newFixture(t, Config{RetryAttempts: 3, Sleep: func(context.Context, time.Duration) {
			fx.fs.SetScript(storage.FaultScript{})
		}})
		h := NewHandler(fx.srv, HandlerConfig{})
		pairs := sortedBrutePairs(fx.rItems, fx.sItems)
		fx.fs.SetScript(storage.FaultScript{ReadErrEvery: 1})
		got := join(t, h, JoinRequestWire{})
		check(t, got, joinResponseMirror{Epoch: fx.srv.Coverage().Epoch, Count: len(pairs), Retries: 1, Pairs: pairs})
	})

	t.Run("no pairs", func(t *testing.T) {
		fx := newFixture(t, Config{})
		h := NewHandler(fx.srv, HandlerConfig{})
		ops := make([]Op, len(fx.rItems))
		for i, it := range fx.rItems {
			ops[i] = Op{Rect: it.Rect, Data: it.Data, Delete: true}
		}
		if err := fx.srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.srv.Round(); err != nil {
			t.Fatal(err)
		}
		got := join(t, h, JoinRequestWire{})
		check(t, got, joinResponseMirror{Epoch: fx.srv.Coverage().Epoch})
	})
}

// repairsPairs reports whether data, which encoding/json decodes into a
// [][2]int32 without error, holds what that decode silently repairs: a pair
// that is null, or that does not hold exactly two elements, or a null
// element.  PairList rejects those.
func repairsPairs(t *testing.T, data []byte) bool {
	var outer []json.RawMessage
	if err := json.Unmarshal(data, &outer); err != nil {
		t.Fatalf("reference accepted %q as [][2]int32 but not as []RawMessage: %v", data, err)
	}
	for _, el := range outer {
		if string(el) == "null" {
			return true
		}
		var inner []json.RawMessage
		if err := json.Unmarshal(el, &inner); err != nil {
			t.Fatalf("reference accepted pair %q but not as []RawMessage: %v", el, err)
		}
		if len(inner) != 2 || string(inner[0]) == "null" || string(inner[1]) == "null" {
			return true
		}
	}
	return false
}

// FuzzPairListDecode checks PairList decoding differentially against
// encoding/json decoding into a [][2]int32, both called directly and through
// json.Unmarshal: an input is accepted exactly when the reference accepts it
// and repairs nothing, and then yields the same value, nil for null
// included.  Every accepted list also re-encodes through AppendPairs to the
// bytes encoding/json writes for it.
func FuzzPairListDecode(f *testing.F) {
	for _, seed := range []string{
		`[[1,2],[3,4]]`,
		" \t\r\n[ [ 1 ,\n2 ] , [3,\t4]\r] \n",
		`null`, ` null `, `[]`, `[ ]`, ``, ` `,
		`[[-0,0]]`, `[[01,2]]`, `[[1e2,2]]`, `[[1.0,2]]`, `[[1E0,2]]`,
		`[[2147483647,-2147483648]]`, `[[2147483648,0]]`, `[[0,-2147483649]]`,
		`[[99999999999999999999,0]]`,
		`[[1]]`, `[[1,2,3]]`, `[[]]`, `[null]`, `[[null,1]]`, `[[1,null]]`,
		`[[1,2]`, `[[1,2]]x`, `[[1,2],]`, `[,[1,2]]`, `[[1 2]]`, `[[-,2]]`,
		`{}`, `""`, `[["1",2]]`, `[[true,2]]`, `[[1,2],{}]`, `[[1,2,"x"]]`, `nul`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref [][2]int32
		refErr := json.Unmarshal(data, &ref)
		repaired := refErr == nil && repairsPairs(t, data)

		var direct, viaJSON PairList
		for _, c := range []struct {
			how  string
			got  *PairList
			err  error
			want bool
		}{
			{"UnmarshalJSON", &direct, direct.UnmarshalJSON(data), refErr == nil && !repaired},
			{"json.Unmarshal", &viaJSON, json.Unmarshal(data, &viaJSON), refErr == nil && !repaired},
		} {
			switch {
			case c.want && c.err != nil:
				t.Fatalf("%s rejected %q, which encoding/json decodes to %v: %v", c.how, data, ref, c.err)
			case !c.want && c.err == nil:
				t.Fatalf("%s accepted %q (reference error %v, repaired %v)", c.how, data, refErr, repaired)
			case c.want && ((*c.got == nil) != (ref == nil) || !slices.Equal(*c.got, ref)):
				t.Fatalf("%s decoded %q to %#v, encoding/json to %#v", c.how, data, *c.got, ref)
			}
		}
		if refErr == nil && !repaired && ref != nil {
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendPairs(nil, ref); !bytes.Equal(got, want) {
				t.Fatalf("AppendPairs(%v) = %q, encoding/json writes %q", ref, got, want)
			}
		}
	})
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := NewHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("addr %q handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.ReadTimeout != ReadTimeout || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("timeouts header %v read %v idle %v, want %v %v %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, ReadHeaderTimeout, ReadTimeout, IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none: a join may run to its deadline", srv.WriteTimeout)
	}
}

// TestReadTimeoutSparesLongHandlers pins what makes ReadTimeout safe where
// a WriteTimeout is not: once a request has been read — an empty body, or a
// body DecodeBody has decoded — a handler that runs past ReadTimeout keeps
// its context and still answers.
func TestReadTimeoutSparesLongHandlers(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	h := http.NewServeMux()
	h.HandleFunc("POST /work", func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != 0 {
			var req JoinRequestWire
			if status, err := DecodeBody(w, r, &req); err != nil {
				httpError(w, status, err)
				return
			}
		}
		select {
		case <-r.Context().Done():
			httpError(w, 499, r.Context().Err())
		case <-time.After(3 * readTimeout):
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		}
	})
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = NewHTTPServer("", h)
	ts.Config.ReadTimeout = readTimeout
	ts.Start()
	defer ts.Close()

	for _, body := range []string{"", `{"workers":2}`} {
		resp, err := http.Post(ts.URL+"/work", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %q: %d %s after the read timeout", body, resp.StatusCode, msg)
		}
	}
}
