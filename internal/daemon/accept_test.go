package daemon

import "testing"

// FuzzAccept hands the Accept parser arbitrary headers: it never
// panics, every quality it assigns is in [0, 1], and plain text is
// chosen only at a positive quality above JSON's.
func FuzzAccept(f *testing.F) {
	for _, s := range []string{
		"", "text/plain", "application/json, text/plain;q=0", "text/plain;q=banana",
		"*/*;q=0.1, text/plain;q=0.5", "text/plain;q=NaN", "text/plain;q=1e-400, application/*;q=-1",
		"text/plain ; q=0.4;charset=utf-8, ,;,/",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, accept string) {
		plain, json := acceptQuality(accept, "text", "plain"), acceptQuality(accept, "application", "json")
		for _, q := range []float64{plain, json, acceptQuality(accept, "image", "png")} {
			if !(q >= 0 && q <= 1) {
				t.Fatalf("%q: quality %v", accept, q)
			}
		}
		if acceptsPlainText(accept) && !(plain > 0 && plain > json) {
			t.Fatalf("%q: plain text chosen at %v against JSON's %v", accept, plain, json)
		}
	})
}
