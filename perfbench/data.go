package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/workload"
)

// The benchmark's data is the standard order schema (workload.StandardSchema
// and workload.StandardForms) filled by generators seeded from --seed, in
// the style of workload.Loads, whose own seed is fixed.

var (
	firstNames = []string{"Ada", "Bob", "Cyd", "Dee", "Eli", "Fay", "Gus", "Hal", "Ivy", "Joe"}
	lastNames  = []string{"Adams", "Baker", "Clark", "Davis", "Evans", "Foster", "Gray", "Hayes"}
	cities     = []string{"Boston", "Chicago", "Denver", "Austin", "Erie", "Fresno", "Gary", "Helena",
		"Ithaca", "Juneau", "Keene", "Lowell"}
	itemNames = []string{"widget", "gadget", "sprocket", "flange", "gear", "bolt", "bracket", "valve"}
)

const (
	insertCustomer = "INSERT INTO customers (id, name, city, credit, since) VALUES (?, ?, ?, ?, ?)"
	insertOrder    = "INSERT INTO orders (id, customer_id, placed, total) VALUES (?, ?, ?, ?)"
	insertItem     = "INSERT INTO order_items (id, order_id, item, qty, price) VALUES (?, ?, ?, ?, ?)"
)

// goodCredit is the good_customers view's threshold (credit >= 500).
const goodCredit = 500.0

// dataset is what the loader wrote, kept to check answers against.
type dataset struct {
	customers, orders, items int
	// cityCount counts customers per city; credit holds each customer's
	// credit (index id-1).
	cityCount map[string]int
	credit    []float64
	// qtyPrefix[i] is the sum of qty over order_items ids 1..i.
	qtyPrefix []int64
}

func (d *dataset) rows() int { return d.customers + d.orders + d.items }

// qtySum is the sum of qty over order_items ids lo..hi.
func (d *dataset) qtySum(lo, hi int) int64 { return d.qtyPrefix[hi] - d.qtyPrefix[lo-1] }

func (d *dataset) goodCustomers() int {
	n := 0
	for _, c := range d.credit {
		if c >= goodCredit {
			n++
		}
	}
	return n
}

// randomCredit draws a credit the way the loader does.
func randomCredit(rng *rand.Rand) float64 { return float64(rng.Intn(20000)) / 10 }

func customerRow(rng *rand.Rand, id int) []types.Value {
	return []types.Value{
		types.NewInt(int64(id)),
		types.NewString(firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]),
		types.NewString(cities[rng.Intn(len(cities))]),
		types.NewFloat(randomCredit(rng)),
		types.NewString(fmt.Sprintf("19%02d-%02d-%02d", 70+rng.Intn(14), 1+rng.Intn(12), 1+rng.Intn(28))),
	}
}

func orderRow(rng *rand.Rand, id, customers int) []types.Value {
	return []types.Value{
		types.NewInt(int64(id)),
		types.NewInt(int64(1 + rng.Intn(customers))),
		types.NewString(fmt.Sprintf("1983-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
		types.NewFloat(float64(rng.Intn(100000)) / 100),
	}
}

func itemRow(rng *rand.Rand, id, order int) []types.Value {
	return []types.Value{
		types.NewInt(int64(id)),
		types.NewInt(int64(order)),
		types.NewString(itemNames[rng.Intn(len(itemNames))]),
		types.NewInt(int64(1 + rng.Intn(9))),
		types.NewFloat(float64(rng.Intn(10000)) / 100),
	}
}

// loadBatch is how many rows one ExecBatch call (one transaction) loads.
const loadBatch = 1000

// populate creates the standard schema in db and loads customers, orders and
// itemsPerOrder items per order, generated from seed.
func populate(db *engine.Database, seed int64, customers, orders, itemsPerOrder int) (*dataset, error) {
	s := db.Session()
	defer s.Close()
	if _, err := s.ExecuteScript(workload.StandardSchema); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{
		customers: customers, orders: orders, items: orders * itemsPerOrder,
		cityCount: map[string]int{},
		credit:    make([]float64, customers),
		qtyPrefix: make([]int64, orders*itemsPerOrder+1),
	}
	err := load(s, insertCustomer, customers, func(i int) []types.Value {
		row := customerRow(rng, i+1)
		d.cityCount[row[2].Str()]++
		d.credit[i] = row[3].Float()
		return row
	})
	if err == nil {
		err = load(s, insertOrder, orders, func(i int) []types.Value { return orderRow(rng, i+1, customers) })
	}
	if err == nil {
		err = load(s, insertItem, d.items, func(i int) []types.Value {
			row := itemRow(rng, i+1, i/itemsPerOrder+1)
			d.qtyPrefix[i+1] = d.qtyPrefix[i] + row[3].Int()
			return row
		})
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// load inserts n generated rows through one prepared statement in batches.
func load(s *engine.Session, insert string, n int, gen func(i int) []types.Value) error {
	st, err := s.Prepare(insert)
	if err != nil {
		return err
	}
	defer st.Close()
	batch := make([][]types.Value, 0, loadBatch)
	for i := 0; i < n; i++ {
		batch = append(batch, gen(i))
		if len(batch) == loadBatch || i == n-1 {
			if _, err := st.ExecBatch(batch); err != nil {
				return fmt.Errorf("%s: %w", insert, err)
			}
			batch = batch[:0]
		}
	}
	return nil
}

// queryAll runs a query on a fresh session of db and returns its rows.
func queryAll(db *engine.Database, query string) ([]types.Tuple, error) {
	s := db.Session()
	defer s.Close()
	res, err := s.Query(query)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// scalar runs a one-value query on a fresh session of db.
func scalar(db *engine.Database, query string) (types.Value, error) {
	rows, err := queryAll(db, query)
	if err != nil {
		return types.Value{}, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return types.Value{}, fmt.Errorf("%s: want one value, got %d rows", query, len(rows))
	}
	return rows[0][0], nil
}
