// Quickstart: open an engine, register Python-style UDFs, load data,
// and run a UDF query through the QFusor pipeline — then look at the
// rewritten plan and the generated fused wrapper.
package main

import (
	"fmt"
	"log"

	"qfusor"
)

func main() {
	db, err := qfusor.Open(qfusor.MonetDB)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// UDFs are written in PyLite (the paper's UDF design specs §4.2):
	// decorators declare the kind, annotations the types.
	err = db.Define(`
@scalarudf
def normalize(s: str) -> str:
    return s.strip().lower().title()

@scalarudf
def domain(email: str) -> str:
    return email.split("@")[1]

@aggregateudf
class emails:
    def init(self):
        self.seen = []
    def step(self, d):
        if d not in self.seen:
            self.seen.append(d)
    def final(self):
        return ",".join(sorted(self.seen))
`)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Register(qfusor.UDFSpec{
		Name: "emails", Kind: qfusor.Aggregate,
		In:  []qfusor.Kind{qfusor.KindString},
		Out: []qfusor.Kind{qfusor.KindString},
	}); err != nil {
		log.Fatal(err)
	}

	must(db.Exec(`CREATE TABLE users (name string, email string, team string)`))
	must(db.Exec(`INSERT INTO users VALUES
		('  ADA lovelace ', 'ada@analytical.org', 'eng'),
		('grace HOPPER',    'grace@navy.mil',     'eng'),
		(' alan turing',    'alan@bletchley.uk',  'research'),
		('katherine johnson', 'kj@nasa.gov',      'research')`))

	// A query mixing scalar UDFs, a UDF aggregate and relational logic.
	sql := `
SELECT team, COUNT(*) AS members, emails(domain(email)) AS domains
FROM users
WHERE normalize(name) != 'Nobody'
GROUP BY team
ORDER BY team`

	res, err := db.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("results:")
	fmt.Println(qfusor.Format(res, 10))

	rep := db.LastReport()
	fmt.Printf("fused sections: %d   fusion optimization: %v   code generation: %v\n\n",
		rep.Sections, rep.FusOptim, rep.CodeGen)

	plan, err := db.Explain(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewritten plan and the fused wrapper (its trace, rendered):")
	fmt.Println(plan)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
