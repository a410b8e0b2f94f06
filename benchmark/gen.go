//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// gen makes every request body of a run from the seed alone: the
// conversation keys, the customer IDs and the notes text. mascd sees
// only these bytes.
type gen struct {
	seed  int64
	notes string // the ~29 KB <notes> subtree shared by the large requests
}

const (
	envOpen  = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Header><m:ConversationID xmlns:m="urn:masc:headers">`
	envMid   = `</m:ConversationID></soapenv:Header><soapenv:Body>`
	envClose = `</soapenv:Body></soapenv:Envelope>`

	notesLines = 700
)

var (
	categories = []string{"tv", "video", "audio"}
	skus       = []string{"605001", "605002", "605003", "605004", "605005", "605006", "605007", "605008", "605009"}
	words      = []string{"fragile", "urgent", "gift", "pallet", "dock", "north", "south", "hold", "rush", "bulk", "crate", "seal", "stack", "label", "scan", "route"}
)

func newGen(seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("<notes>")
	for i := 0; i < notesLines; i++ {
		fmt.Fprintf(&b, "<line>%s %s %04d</line>", words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(10000))
	}
	b.WriteString("</notes>")
	return &gen{seed: seed, notes: b.String()}
}

// mix is a per-request deterministic value (splitmix64 of seed and i),
// so request i is the same bytes whichever client sends it.
func (g *gen) mix(i int) uint64 {
	z := uint64(g.seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0x94D049BB133111EB
	z ^= z >> 27
	return z
}

// conversation is the key of request i; cluster_sprayed also sends it
// as the X-Masc-Conversation header the ring routes on.
func (g *gen) conversation(i int) string {
	return fmt.Sprintf("conv-%d-%07d", g.seed, i)
}

// catalogSmall is the ~330 B getCatalog.
func (g *gen) catalogSmall(i int) string {
	return envOpen + g.conversation(i) + envMid +
		`<getCatalog xmlns="urn:wsi:scm"><category>` + categories[g.mix(i)%3] + `</category></getCatalog>` + envClose
}

// catalogLarge is the ~30 KB element-dense getCatalog: the backend
// reads only <category>, and no policy on getCatalog looks at the body.
func (g *gen) catalogLarge(i int) string {
	return envOpen + g.conversation(i) + envMid +
		`<getCatalog xmlns="urn:wsi:scm"><category>` + categories[g.mix(i)%3] + `</category>` + g.notes + `</getCatalog>` + envClose
}

// orderLarge is the same ~30 KB shape as a one-item submitOrder, which
// the order-body policy walks.
func (g *gen) orderLarge(i int) string {
	m := g.mix(i)
	return envOpen + g.conversation(i) + envMid +
		`<submitOrder xmlns="urn:wsi:scm"><customerID>` + fmt.Sprintf("cust-%d-%05d", g.seed, m%100000) +
		`</customerID><items><item><sku>` + skus[(m>>20)%9] + `</sku><qty>1</qty></item></items>` + g.notes + `</submitOrder>` + envClose
}

// inputSHA identifies the inputs of one epoch: the hash of requests
// 0..n-1 in order.
func inputSHA(build func(int) string, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		io.WriteString(h, build(i))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
