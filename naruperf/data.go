package main

// Inputs and ground truth. Every input is a pure function of the workload
// seed. Truth comes from the benchmark's own evaluation of the rows it wrote:
// a scan for the single-table DMV queries and a hash join for the join
// queries. Neither uses the program's query compiler, table store or join
// oracle; data_test.go checks both against them on a small instance.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/datagen"
)

// dmvData is the synthetic DMV table (datagen.DMV) as integer values,
// column-major. Values equal the generator's codes, so a column's domain is
// 0..domains[c]-1 and value order is integer order.
type dmvData struct {
	names   []string
	domains []int
	cols    [][]int32
}

func genDMV(rows int, seed int64) *dmvData {
	t := datagen.DMV(rows, seed)
	d := &dmvData{}
	for _, c := range t.Cols {
		d.names = append(d.names, c.Name)
		d.domains = append(d.domains, c.DomainSize())
		d.cols = append(d.cols, append([]int32(nil), c.Codes...))
	}
	return d
}

func (d *dmvData) numRows() int { return len(d.cols[0]) }

// csvRows renders rows (indexes into d) as header-less CSV.
func (d *dmvData) csvRows(rows []int) []byte {
	var b bytes.Buffer
	for _, r := range rows {
		for c := range d.cols {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(d.cols[c][r])))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func (d *dmvData) writeCSV(path string) error {
	all := make([]int, d.numRows())
	for i := range all {
		all[i] = i
	}
	body := strings.Join(d.names, ",") + "\n" + string(d.csvRows(all))
	return os.WriteFile(path, []byte(body), 0o644)
}

// pred is one filter "col op val" with op one of =, <= and >=: the
// operators of the §6.1.3 workloads, both the benchmark's and the program's.
type pred struct {
	col int
	op  string
	val int64
}

func (p pred) holds(v int64) bool {
	switch p.op {
	case "=":
		return v == p.val
	case "<=":
		return v <= p.val
	case ">=":
		return v >= p.val
	}
	return false
}

// ops is ordered so "<=" and ">=" are found before "=".
var ops = []string{"<=", ">=", "="}

// parseWhere reads "name op value AND ..." against column names. It is the
// benchmark's own reader, used to check the program's rendering of its
// workload labels (data_test.go).
func parseWhere(s string, names []string) ([]pred, error) {
	var out []pred
	for _, clause := range strings.Split(s, " AND ") {
		var p pred
		found := false
		for _, op := range ops {
			i := strings.Index(clause, op)
			if i < 0 {
				continue
			}
			name := strings.TrimSpace(clause[:i])
			v, err := strconv.ParseInt(strings.TrimSpace(clause[i+len(op):]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("clause %q: %v", clause, err)
			}
			p = pred{col: -1, op: op, val: v}
			for c, n := range names {
				if n == name {
					p.col = c
				}
			}
			if p.col < 0 {
				return nil, fmt.Errorf("clause %q: unknown column", clause)
			}
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("clause %q: no operator", clause)
		}
		out = append(out, p)
	}
	return out, nil
}

func renderWhere(ps []pred, names []string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%s %s %d", names[p.col], p.op, p.val)
	}
	return strings.Join(parts, " AND ")
}

// count scans every row: the exact cardinality of the conjunction.
func (d *dmvData) count(ps []pred) int64 {
	var n int64
	for r := 0; r < d.numRows(); r++ {
		ok := true
		for _, p := range ps {
			if !p.holds(int64(d.cols[p.col][r])) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// dmvQueries draws n distinct conjunctions by the paper's §6.1.3 procedure.
func dmvQueries(d *dmvData, n int, rng *rand.Rand) []string {
	p := newDMVPool(d, rng)
	p.get(n - 1)
	return p.qs
}

// dmvPool hands out distinct §6.1.3 queries by index, drawing them from rng
// as they are first asked for, so a faster server never runs out of them.
// Query i depends only on the rng's seed, not on the order of the asks.
type dmvPool struct {
	mu   sync.Mutex
	d    *dmvData
	rng  *rand.Rand
	seen map[string]bool
	qs   []string
}

func newDMVPool(d *dmvData, rng *rand.Rand) *dmvPool {
	return &dmvPool{d: d, rng: rng, seen: map[string]bool{}}
}

// get returns query i, drawing every query up to i that is not drawn yet.
func (p *dmvPool) get(i int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.qs) <= i {
		if w := dmvQuery(p.d, p.rng); !p.seen[w] {
			p.seen[w] = true
			p.qs = append(p.qs, w)
		}
	}
	return p.qs[i]
}

// dmvQuery draws one conjunction: 5 to 11 filtered columns, literals taken
// from a uniformly drawn row, equality on domains below 10 and one of =, <=,
// >= otherwise.
func dmvQuery(d *dmvData, rng *rand.Rand) string {
	nc := len(d.cols)
	perm := make([]int, nc)
	f := 5 + rng.Intn(nc-5+1)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < f; i++ {
		j := i + rng.Intn(nc-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	row := rng.Intn(d.numRows())
	ps := make([]pred, 0, f)
	for _, c := range perm[:f] {
		p := pred{col: c, op: "=", val: int64(d.cols[c][row])}
		if d.domains[c] >= 10 {
			p.op = []string{"=", "<=", ">="}[rng.Intn(3)]
		}
		ps = append(ps, p)
	}
	return renderWhere(ps, d.names)
}

// joinData is the customers ⋈ orders ⋈ items schema of the program's join
// benchmark: a heavy head of customers places most orders, and big orders
// carry more items. Every customer has an order and every order an item, so
// full-join tuples are exactly the item rows.
type joinData struct {
	custRegion []string
	custTier   []int
	orderCust  []int
	orderAmt   []int
	itemOrder  []int
	itemPrice  []int
}

var regions = []string{"east", "west", "north", "south", "core", "edge"}

func genJoin(customers int, seed int64) *joinData {
	rng := rand.New(rand.NewSource(seed))
	j := &joinData{}
	for cid := 0; cid < customers; cid++ {
		j.custRegion = append(j.custRegion, regions[rng.Intn(len(regions))])
		j.custTier = append(j.custTier, cid%3)
		orders := 1 + rng.Intn(6)
		heavy := cid < customers/10
		if heavy {
			orders = 12 + rng.Intn(12)
		}
		for o := 0; o < orders; o++ {
			amount := 10 + rng.Intn(50)
			if heavy {
				amount += 40
			}
			oid := len(j.orderCust)
			j.orderCust = append(j.orderCust, cid)
			j.orderAmt = append(j.orderAmt, amount)
			items := 1 + rng.Intn(3)
			if amount >= 60 {
				items += 2
			}
			for i := 0; i < items; i++ {
				j.itemOrder = append(j.itemOrder, oid)
				j.itemPrice = append(j.itemPrice, 5*rng.Intn(12))
			}
		}
	}
	return j
}

// joinSpec is the join description `naru train -join` reads.
const joinSpec = `{
  "tables": [
    {"name": "customers", "csv": "customers.csv"},
    {"name": "orders", "csv": "orders.csv"},
    {"name": "items", "csv": "items.csv"}
  ],
  "edges": [
    {"parent": "customers", "child": "orders", "parent_col": "cid", "child_col": "cid"},
    {"parent": "orders", "child": "items", "parent_col": "oid", "child_col": "oid"}
  ]
}
`

// write lays the three CSVs and the spec out in dir and returns the spec path.
func (j *joinData) write(dir string) (string, error) {
	var c, o bytes.Buffer
	c.WriteString("cid,region,tier\n")
	for i := range j.custRegion {
		fmt.Fprintf(&c, "%d,%s,%d\n", i, j.custRegion[i], j.custTier[i])
	}
	o.WriteString("oid,cid,amount\n")
	for i := range j.orderCust {
		fmt.Fprintf(&o, "%d,%d,%d\n", i, j.orderCust[i], j.orderAmt[i])
	}
	items := "oid,price\n" + string(j.itemRows(0, len(j.itemOrder)))
	files := map[string][]byte{
		"customers.csv": c.Bytes(), "orders.csv": o.Bytes(),
		"items.csv": []byte(items), "spec.json": []byte(joinSpec),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			return "", err
		}
	}
	return filepath.Join(dir, "spec.json"), nil
}

// itemRows renders item rows [lo, hi) as header-less CSV.
func (j *joinData) itemRows(lo, hi int) []byte {
	var b bytes.Buffer
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "%d,%d\n", j.itemOrder[i], j.itemPrice[i])
	}
	return b.Bytes()
}

// joinQuery filters up to one value per predicable column; nil means no
// filter on that column.
type joinQuery struct {
	region   *string
	tier     *pred // op "="
	amount   *pred
	price    *pred
	rendered string
}

// count is the exact cardinality of the spanned sub-join: the root plus
// every table the predicates touch, closed under parent links, joined by
// key with hash maps.
func (j *joinData) count(q joinQuery) int64 {
	custOK := func(c int) bool {
		if q.region != nil && j.custRegion[c] != *q.region {
			return false
		}
		return q.tier == nil || q.tier.holds(int64(j.custTier[c]))
	}
	if q.amount == nil && q.price == nil {
		var n int64
		for c := range j.custRegion {
			if custOK(c) {
				n++
			}
		}
		return n
	}
	var perOrder map[int]int64
	if q.price != nil {
		perOrder = map[int]int64{}
		for i, o := range j.itemOrder {
			if q.price.holds(int64(j.itemPrice[i])) {
				perOrder[o]++
			}
		}
	}
	var n int64
	for o, c := range j.orderCust {
		if !custOK(c) || (q.amount != nil && !q.amount.holds(int64(j.orderAmt[o]))) {
			continue
		}
		if perOrder != nil {
			n += perOrder[o]
		} else {
			n++
		}
	}
	return n
}

// joinQueries draws n distinct queries of 1 to 3 predicates anchored at a
// uniformly drawn join tuple (an item row), as the program's join benchmark
// does: equality on region and tier, <= or >= on amount and price. Queries
// whose truth is below 20 are redrawn so relative error stays meaningful.
func joinQueries(j *joinData, n int, rng *rand.Rand) ([]joinQuery, []int64) {
	seen := map[string]bool{}
	var qs []joinQuery
	var truths []int64
	for len(qs) < n {
		it := rng.Intn(len(j.itemOrder))
		o := j.itemOrder[it]
		c := j.orderCust[o]
		k := 1 + rng.Intn(3)
		var q joinQuery
		var parts []string
		for _, col := range rng.Perm(4)[:k] {
			rangeOp := []string{"<=", ">="}[rng.Intn(2)]
			switch col {
			case 0:
				r := j.custRegion[c]
				q.region = &r
				parts = append(parts, "customers.region = "+r)
			case 1:
				q.tier = &pred{op: "=", val: int64(j.custTier[c])}
				parts = append(parts, fmt.Sprintf("customers.tier = %d", j.custTier[c]))
			case 2:
				q.amount = &pred{op: rangeOp, val: int64(j.orderAmt[o])}
				parts = append(parts, fmt.Sprintf("orders.amount %s %d", rangeOp, j.orderAmt[o]))
			case 3:
				q.price = &pred{op: rangeOp, val: int64(j.itemPrice[it])}
				parts = append(parts, fmt.Sprintf("items.price %s %d", rangeOp, j.itemPrice[it]))
			}
		}
		q.rendered = strings.Join(parts, " AND ")
		if seen[q.rendered] {
			continue
		}
		t := j.count(q)
		if t < 20 {
			continue
		}
		seen[q.rendered] = true
		qs = append(qs, q)
		truths = append(truths, t)
	}
	return qs, truths
}
