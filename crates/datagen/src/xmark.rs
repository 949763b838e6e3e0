//! XMark-like auction-site generator.
//!
//! Reproduces the structure and the query-constant selectivities of the
//! paper's 100 MB scaled XMark dataset. At `scale = 1.0` the planted
//! counts match Fig. 7/8's per-branch result sizes:
//!
//! | constant                           | count at scale 1.0 |
//! |------------------------------------|--------------------|
//! | namerica item `quantity = "5"`     | 1     (Q1x)        |
//! | namerica item `quantity = "2"`     | 3 128 (Q2x)        |
//! | namerica item `quantity = "1"`     | 11 062 (Q3x)       |
//! | person `@income = "46814.17"`      | 1     (Q4x, Q5x)   |
//! | person `name = "Hagen Artosi"`     | 1     (Q5x)        |
//! | person `@income = "9876.00"`       | 2 038 (Q6x–Q9x)    |
//! | namerica item `location = "united states"` | 7 519 (Q7x, Q9x) |
//! | auction `@increase = "75.00"`      | 55    (Q4x–Q7x)    |
//! | auction `@increase = "3.00"`       | 5 172 (Q8x, Q9x)   |
//! | annotation author `= "person22082"`| 3     (Q10x, Q11x) |
//! | auction `time` elements            | 59 486 (Q10x)      |
//! | item `incategory/@category = "category440"` | 41 (Q12x) |
//! | all-region `location = "united states"` | 16 294 (Q14x) |
//! | item `mailbox/mail` elements       | 20 946 (Q12x–Q15x) |
//!
//! Items are spread over six region elements so that `//item` expands to
//! six distinct schema paths — the property §5.2.6 exploits.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xtwig_xml::{NodeId, XmlForest};

/// Paper-scale (100 MB) reference counts.
mod paper {
    // Item totals are chosen so every Fig. 7/8 result size fits its
    // region: Q3x needs 11_062 quantity="1" items inside namerica alone,
    // and Q14x needs 16_294 - 7_519 = 8_775 US items outside namerica.
    pub const ITEMS: u64 = 30_000;
    pub const NAMERICA_ITEMS: u64 = 16_000;
    pub const Q1: u64 = 11_062; // namerica quantity=1
    pub const Q2: u64 = 3_128; // namerica quantity=2
    pub const US_NAMERICA: u64 = 7_519;
    pub const US_TOTAL: u64 = 16_294;
    pub const CATEGORY440: u64 = 41;
    pub const MAILS: u64 = 20_946;
    pub const PERSONS: u64 = 25_500;
    pub const INCOME_COMMON: u64 = 2_038; // 9876.00
    pub const AUCTIONS: u64 = 12_000;
    pub const INCREASE_75: u64 = 55;
    pub const INCREASE_3: u64 = 5_172;
    pub const TIMES: u64 = 59_486;
    pub const CATEGORIES: u64 = 1_000;
    pub const CLOSED_AUCTIONS: u64 = 3_000;
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct XmarkConfig {
    /// Fraction of the paper's 100 MB profile (1.0 ≈ paper scale).
    pub scale: f64,
    /// RNG seed (placement shuffles only; counts are exact).
    pub seed: u64,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig { scale: 0.05, seed: 0x5EED }
    }
}

/// Exact planted counts, recorded during generation.
#[derive(Debug, Clone, Default)]
pub struct XmarkProfile {
    /// Document root id.
    pub root: NodeId,
    /// Total items across all regions.
    pub items: u64,
    /// Items under `namerica`.
    pub namerica_items: u64,
    /// namerica items with `quantity = "1"`.
    pub quantity1: u64,
    /// namerica items with `quantity = "2"`.
    pub quantity2: u64,
    /// namerica items with `quantity = "5"`.
    pub quantity5: u64,
    /// namerica items with `location = "united states"`.
    pub us_namerica: u64,
    /// Items in any region with `location = "united states"`.
    pub us_total: u64,
    /// Items with an `incategory/@category = "category440"`.
    pub category440: u64,
    /// Total `mailbox/mail` elements.
    pub mails: u64,
    /// Persons.
    pub persons: u64,
    /// Persons with `profile/@income = "9876.00"`.
    pub income_common: u64,
    /// Persons with `profile/@income = "46814.17"`.
    pub income_rich: u64,
    /// Persons named `Hagen Artosi`.
    pub hagen: u64,
    /// Open auctions.
    pub auctions: u64,
    /// Auctions with `@increase = "75.00"`.
    pub increase_75: u64,
    /// Auctions with `@increase = "3.00"`.
    pub increase_3: u64,
    /// Auctions whose annotation author is `person22082`.
    pub person22082: u64,
    /// Total `time` elements under auctions.
    pub times: u64,
    /// Total element/attribute nodes generated.
    pub nodes: u64,
}

fn scaled(n: u64, s: f64) -> u64 {
    ((n as f64) * s).round() as u64
}

fn scaled_min1(n: u64, s: f64) -> u64 {
    scaled(n, s).max(1)
}

/// Generates one XMark-like document into `forest`.
pub fn generate_xmark(forest: &mut XmlForest, config: XmarkConfig) -> XmarkProfile {
    let s = config.scale;
    assert!(s > 0.0, "scale must be positive");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut profile = XmarkProfile::default();

    // ---- plan exact label assignments ---------------------------------
    let namerica_items = scaled_min1(paper::NAMERICA_ITEMS, s);
    let other_items_total = scaled_min1(paper::ITEMS - paper::NAMERICA_ITEMS, s);
    let q1 = scaled_min1(paper::Q1, s).min(namerica_items);
    let q2 = scaled_min1(paper::Q2, s).min(namerica_items.saturating_sub(q1));
    let q5 = 1u64.min(namerica_items.saturating_sub(q1 + q2));
    // quantity labels for namerica items (exact counts, shuffled).
    let mut na_quantity: Vec<&'static str> = Vec::with_capacity(namerica_items as usize);
    na_quantity.extend(std::iter::repeat_n("1", q1 as usize));
    na_quantity.extend(std::iter::repeat_n("2", q2 as usize));
    na_quantity.extend(std::iter::repeat_n("5", q5 as usize));
    while na_quantity.len() < namerica_items as usize {
        na_quantity.push(["3", "4", "6", "7"][rng.gen_range(0..4)]);
    }
    na_quantity.shuffle(&mut rng);

    let us_na = scaled_min1(paper::US_NAMERICA, s).min(namerica_items);
    let mut na_location: Vec<&'static str> = Vec::with_capacity(namerica_items as usize);
    na_location.extend(std::iter::repeat_n("united states", us_na as usize));
    while na_location.len() < namerica_items as usize {
        na_location.push(["canada", "mexico", "cuba"][rng.gen_range(0..3)]);
    }
    na_location.shuffle(&mut rng);

    let us_other = scaled(paper::US_TOTAL - paper::US_NAMERICA, s).min(other_items_total);
    let mut other_location: Vec<&'static str> = Vec::with_capacity(other_items_total as usize);
    other_location.extend(std::iter::repeat_n("united states", us_other as usize));
    while other_location.len() < other_items_total as usize {
        other_location
            .push(["germany", "france", "japan", "brazil", "kenya", "india"][rng.gen_range(0..6)]);
    }
    other_location.shuffle(&mut rng);

    let total_items = namerica_items + other_items_total;
    let cat440 = scaled_min1(paper::CATEGORY440, s).min(total_items);
    let mut cat_labels: Vec<bool> = vec![false; total_items as usize];
    for slot in cat_labels.iter_mut().take(cat440 as usize) {
        *slot = true;
    }
    cat_labels.shuffle(&mut rng);

    // mail count: ~0.96 per item at paper scale.
    let target_mails = scaled(paper::MAILS, s);

    let persons = scaled_min1(paper::PERSONS, s);
    let income_common = scaled_min1(paper::INCOME_COMMON, s).min(persons);
    let mut person_income: Vec<&'static str> = Vec::with_capacity(persons as usize);
    person_income.extend(std::iter::repeat_n("9876.00", income_common as usize));
    if person_income.len() < persons as usize {
        person_income.push("46814.17"); // the rich singleton
    }
    while person_income.len() < persons as usize {
        person_income.push(["12000.00", "34000.00", "55000.00", "78000.00"][rng.gen_range(0..4)]);
    }
    person_income.shuffle(&mut rng);

    let auctions = scaled_min1(paper::AUCTIONS, s);
    let inc75 = scaled_min1(paper::INCREASE_75, s).min(auctions);
    let inc3 = scaled_min1(paper::INCREASE_3, s).min(auctions.saturating_sub(inc75));
    let mut auction_increase: Vec<&'static str> = Vec::with_capacity(auctions as usize);
    auction_increase.extend(std::iter::repeat_n("75.00", inc75 as usize));
    auction_increase.extend(std::iter::repeat_n("3.00", inc3 as usize));
    while auction_increase.len() < auctions as usize {
        auction_increase.push(["1.50", "6.00", "12.00", "24.00"][rng.gen_range(0..4)]);
    }
    auction_increase.shuffle(&mut rng);

    let annot22082 = 3u64.min(auctions);
    let mut annot_person: Vec<bool> = vec![false; auctions as usize];
    for slot in annot_person.iter_mut().take(annot22082 as usize) {
        *slot = true;
    }
    annot_person.shuffle(&mut rng);

    let total_times = scaled_min1(paper::TIMES, s);
    let categories = scaled_min1(paper::CATEGORIES, s);
    let closed = scaled(paper::CLOSED_AUCTIONS, s);

    // ---- emit the document ---------------------------------------------
    let before_nodes = forest.node_count() as u64;
    let mut b = forest.builder();
    let root = b.open("site");

    // regions ------------------------------------------------------------
    b.open("regions");
    let region_names = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
    // Distribute non-namerica items over the other five regions.
    let per_other = other_items_total / 5;
    let mut other_rem = other_items_total - per_other * 5;
    let mut item_counter = 0u64;
    let mut other_loc_iter = other_location.into_iter();
    let mut mails_emitted = 0u64;
    let mut items_emitted = 0u64;
    for region in region_names {
        b.open(region);
        let count = if region == "namerica" {
            namerica_items
        } else {
            let extra = if other_rem > 0 {
                other_rem -= 1;
                1
            } else {
                0
            };
            per_other + extra
        };
        for i in 0..count {
            b.open("item");
            b.attr("id", &format!("item{item_counter}"));
            let (loc, qty): (&str, &str) = if region == "namerica" {
                (na_location[i as usize], na_quantity[i as usize])
            } else {
                (other_loc_iter.next().unwrap_or("elsewhere"), "1")
            };
            b.leaf("location", loc);
            b.leaf("quantity", qty);
            b.leaf("name", &format!("thing number {item_counter}"));
            b.leaf("payment", "Cash, Money order");
            b.open("description");
            b.leaf("text", "gold plated and slightly used");
            b.close();
            b.leaf("shipping", "Will ship internationally");
            b.open("incategory");
            let cat = if cat_labels[item_counter as usize] {
                "category440".to_owned()
            } else {
                format!("category{}", rng.gen_range(0..categories.max(1)))
            };
            b.attr("category", &cat);
            b.close();
            // Mails: spread target_mails across items deterministically.
            // category440 items always get mail so Q12x/Q13x stay
            // non-empty at tiny scales.
            let mut mails_due = (target_mails * (items_emitted + 1)) / total_items.max(1);
            if cat_labels[item_counter as usize] && mails_due <= mails_emitted {
                mails_due = mails_emitted + 1;
            }
            if mails_due > mails_emitted {
                b.open("mailbox");
                while mails_emitted < mails_due {
                    b.open("mail");
                    b.leaf("from", &format!("person{}", rng.gen_range(0..persons)));
                    b.leaf("to", &format!("person{}", rng.gen_range(0..persons)));
                    b.leaf(
                        "date",
                        &format!("0{}/{}/2000", 1 + (mails_emitted % 9), 1 + (mails_emitted % 27)),
                    );
                    b.close();
                    mails_emitted += 1;
                }
                b.close();
            }
            b.close(); // item
            if region == "namerica" {
                profile.namerica_items += 1;
                match qty {
                    "1" => profile.quantity1 += 1,
                    "2" => profile.quantity2 += 1,
                    "5" => profile.quantity5 += 1,
                    _ => {}
                }
                if loc == "united states" {
                    profile.us_namerica += 1;
                }
            }
            if loc == "united states" {
                profile.us_total += 1;
            }
            if cat_labels[item_counter as usize] {
                profile.category440 += 1;
            }
            item_counter += 1;
            items_emitted += 1;
        }
        b.close(); // region
    }
    b.close(); // regions
    profile.items = item_counter;
    profile.mails = mails_emitted;

    // categories / catgraph ----------------------------------------------
    b.open("categories");
    for c in 0..categories {
        b.open("category");
        b.attr("id", &format!("category{c}"));
        b.leaf("name", &format!("category name {c}"));
        b.close();
    }
    b.close();
    b.open("catgraph");
    for c in 1..categories {
        b.open("edge");
        b.attr("from", &format!("category{}", c - 1));
        b.attr("to", &format!("category{c}"));
        b.close();
    }
    b.close();

    // people ---------------------------------------------------------------
    b.open("people");
    for p in 0..persons {
        b.open("person");
        b.attr("id", &format!("person{p}"));
        let name = if p == 0 { "Hagen Artosi".to_owned() } else { format!("Person Name{p}") };
        b.leaf("name", &name);
        if name == "Hagen Artosi" {
            profile.hagen += 1;
        }
        b.leaf("emailaddress", &format!("mailto:person{p}@example.org"));
        if p % 3 == 0 {
            b.leaf("phone", &format!("+1 ({}) 555-{:04}", 100 + p % 900, p % 10_000));
        }
        b.open("profile");
        let income = person_income[p as usize];
        b.attr("income", income);
        match income {
            "9876.00" => profile.income_common += 1,
            "46814.17" => profile.income_rich += 1,
            _ => {}
        }
        b.open("interest");
        b.attr("category", &format!("category{}", p % categories.max(1)));
        b.close();
        if p % 2 == 0 {
            b.leaf("education", "Graduate School");
        }
        b.leaf("business", if p % 4 == 0 { "Yes" } else { "No" });
        b.close(); // profile
        b.open("watches");
        b.open("watch");
        b.attr("open_auction", &format!("auction{}", p % auctions.max(1)));
        b.close();
        b.close();
        b.close(); // person
    }
    b.close(); // people
    profile.persons = persons;

    // open_auctions ---------------------------------------------------------
    b.open("open_auctions");
    let mut times_emitted = 0u64;
    for a in 0..auctions {
        b.open("open_auction");
        b.attr("id", &format!("auction{a}"));
        let inc = auction_increase[a as usize];
        b.attr("increase", inc);
        match inc {
            "75.00" => profile.increase_75 += 1,
            "3.00" => profile.increase_3 += 1,
            _ => {}
        }
        b.leaf("initial", &format!("{}.00", 10 + a % 190));
        b.leaf("current", &format!("{}.00", 20 + a % 290));
        // Bidders with their own @increase (Q11x probes bidder/@increase).
        let bidders = 1 + (a % 3);
        for bd in 0..bidders {
            b.open("bidder");
            b.attr("increase", inc);
            b.leaf("date", &format!("0{}/{}/2001", 1 + bd % 9, 1 + a % 27));
            b.open("personref");
            b.attr("person", &format!("person{}", (a + bd) % persons));
            b.close();
            b.close();
        }
        // time elements (Q10x's unselective branch): spread the target
        // across auctions deterministically.
        let due = (total_times * (a + 1)) / auctions;
        while times_emitted < due {
            b.leaf("time", &format!("{:02}:{:02}:00", times_emitted % 24, times_emitted % 60));
            times_emitted += 1;
        }
        b.open("itemref");
        b.attr("item", &format!("item{}", a % total_items.max(1)));
        b.close();
        b.open("seller");
        b.attr("person", &format!("person{}", a % persons));
        b.close();
        b.open("annotation");
        b.open("author");
        let annotator = if annot_person[a as usize] {
            "person22082".to_owned()
        } else {
            format!("person{}", (a * 7 + 1) % persons)
        };
        b.attr("person", &annotator);
        b.close();
        b.leaf("description", "the item is in good shape");
        b.close(); // annotation
        if annot_person[a as usize] {
            profile.person22082 += 1;
        }
        b.leaf("quantity", "1");
        b.leaf("type", if a % 2 == 0 { "Regular" } else { "Featured" });
        b.open("interval");
        b.leaf("start", "01/01/2001");
        b.leaf("end", "12/31/2001");
        b.close();
        b.close(); // open_auction
    }
    b.close(); // open_auctions
    profile.auctions = auctions;
    profile.times = times_emitted;

    // closed_auctions ---------------------------------------------------------
    b.open("closed_auctions");
    for c in 0..closed {
        b.open("closed_auction");
        b.open("seller");
        b.attr("person", &format!("person{}", c % persons));
        b.close();
        b.open("buyer");
        b.attr("person", &format!("person{}", (c + 1) % persons));
        b.close();
        b.open("itemref");
        b.attr("item", &format!("item{}", c % total_items.max(1)));
        b.close();
        b.leaf("price", &format!("{}.00", 30 + c % 400));
        b.leaf("date", "06/06/2001");
        b.leaf("quantity", "1");
        b.close();
    }
    b.close(); // closed_auctions

    b.close(); // site
    b.finish();
    profile.root = root;
    profile.nodes = forest.node_count() as u64 - before_nodes;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(scale: f64) -> (XmlForest, XmarkProfile) {
        let mut f = XmlForest::new();
        let p = generate_xmark(&mut f, XmarkConfig { scale, seed: 42 });
        (f, p)
    }

    #[test]
    fn exact_singletons_survive_scaling() {
        let (_, p) = profile(0.01);
        assert_eq!(p.quantity5, 1);
        assert_eq!(p.income_rich, 1);
        assert_eq!(p.hagen, 1);
        assert_eq!(p.person22082, 3);
    }

    #[test]
    fn counts_track_paper_ratios() {
        let (_, p) = profile(0.02);
        // quantity=1 should be ~51% of namerica items.
        let ratio = p.quantity1 as f64 / p.namerica_items as f64;
        assert!((0.5..0.85).contains(&ratio), "q1 ratio {ratio}");
        // increase=3.00 ~43% of auctions; 75.00 rare.
        assert!(p.increase_3 > p.increase_75 * 20);
        // income 9876.00 ~8% of persons.
        let ri = p.income_common as f64 / p.persons as f64;
        assert!((0.04..0.16).contains(&ri), "income ratio {ri}");
        // times outnumber auctions ~5x.
        assert!(p.times > p.auctions * 3);
    }

    #[test]
    fn determinism() {
        let (f1, p1) = profile(0.01);
        let (f2, p2) = profile(0.01);
        assert_eq!(f1.node_count(), f2.node_count());
        assert_eq!(p1.items, p2.items);
        assert_eq!(p1.us_total, p2.us_total);
        // Different seed shifts placements but not counts.
        let mut f3 = XmlForest::new();
        let p3 = generate_xmark(&mut f3, XmarkConfig { scale: 0.01, seed: 7 });
        assert_eq!(p1.items, p3.items);
        assert_eq!(p1.quantity1, p3.quantity1);
    }

    #[test]
    fn six_region_paths_exist() {
        let (f, _) = profile(0.005);
        let regions: Vec<&str> =
            ["africa", "asia", "australia", "europe", "namerica", "samerica"].to_vec();
        for r in regions {
            assert!(f.dict().lookup(r).is_some(), "region {r} missing");
        }
        // //item must expand to six distinct schema paths.
        let item = f.dict().lookup("item").unwrap();
        let mut paths = std::collections::HashSet::new();
        for n in f.iter_nodes() {
            if f.tag(n) == item {
                paths.insert(f.root_path_tags(n));
            }
        }
        assert_eq!(paths.len(), 6);
    }

    #[test]
    fn document_is_deep() {
        // The paper contrasts deep XMark against shallow DBLP.
        let (f, _) = profile(0.005);
        assert!(f.max_depth() >= 6, "depth {}", f.max_depth());
    }

    #[test]
    fn profile_counts_match_forest_scan() {
        let (f, p) = profile(0.01);
        let quantity = f.dict().lookup("quantity").unwrap();
        let q1 = f
            .iter_nodes()
            .filter(|&n| f.tag(n) == quantity && f.value_str(n) == Some("1"))
            .filter(|&n| {
                // restrict to namerica items
                f.root_path_tags(n).iter().any(|&t| f.dict().name(t) == "namerica")
            })
            .count() as u64;
        assert_eq!(q1, p.quantity1);
        let income = f.dict().lookup("@income").unwrap();
        let rich = f
            .iter_nodes()
            .filter(|&n| f.tag(n) == income && f.value_str(n) == Some("46814.17"))
            .count() as u64;
        assert_eq!(rich, p.income_rich);
    }
}
