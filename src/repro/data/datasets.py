"""Synthetic dataset generators.

The paper evaluates on seven real-world datasets and one synthetic dataset
(Table 4).  Real datasets cannot be shipped here, so each is replaced by a
deterministic synthetic generator that reproduces its *shape*: the mix of
string and numeric attributes, key-like and order-like dependencies, and a
set of golden DCs (defined in :mod:`repro.data.golden`) that hold exactly on
the clean data.  Row counts are scaled down to laptop size but keep the
paper's relative ordering (Tax and NCVoter largest, Adult smallest).

All generators take an explicit ``seed`` and are fully reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.dc import DenialConstraint
from repro.data.golden import golden_dcs
from repro.data.relation import Relation

#: Default (scaled-down) row counts, preserving the paper's relative sizes.
DEFAULT_ROWS: dict[str, int] = {
    "tax": 1000,
    "stock": 600,
    "hospital": 550,
    "food": 700,
    "airport": 450,
    "adult": 320,
    "flight": 800,
    "voter": 950,
}

#: Dataset names in the order used by the paper's figures.
DATASET_NAMES: tuple[str, ...] = (
    "tax", "stock", "hospital", "food", "airport", "adult", "flight", "voter",
)

_FIRST_NAMES = [
    "Alice", "Bob", "Carol", "David", "Emma", "Frank", "Grace", "Henry", "Irene",
    "Jack", "Karen", "Liam", "Mona", "Noah", "Olivia", "Paul", "Quinn", "Rose",
    "Sam", "Tina", "Umar", "Vera", "Will", "Xena", "Yara", "Zane",
]
_LAST_NAMES = [
    "Smith", "Johnson", "Lee", "Brown", "Garcia", "Miller", "Davis", "Wilson",
    "Moore", "Taylor", "Anderson", "Thomas", "Jackson", "White", "Harris",
    "Martin", "Thompson", "Young", "King", "Wright",
]
_STATES = [
    "NY", "CA", "TX", "FL", "IL", "PA", "OH", "GA", "NC", "MI",
    "WA", "AZ", "MA", "TN", "IN", "MO", "MD", "WI", "CO", "MN",
]


@dataclass
class Dataset:
    """A synthetic dataset: the relation, its golden DCs, and provenance."""

    name: str
    relation: Relation
    golden: list[DenialConstraint]
    description: str = ""
    seed: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        """Number of tuples in the relation."""
        return self.relation.n_rows

    @property
    def n_columns(self) -> int:
        """Number of attributes in the relation."""
        return self.relation.n_columns

    @property
    def n_golden(self) -> int:
        """Number of golden DCs."""
        return len(self.golden)


# ----------------------------------------------------------------------
# Individual generators
# ----------------------------------------------------------------------
def generate_tax(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Tax dataset (the paper's only synthetic dataset).

    Each state has a fixed tax rate and fixed single/child exemptions; zip
    codes belong to exactly one city and state; tax is a monotone function
    of salary within a state.
    """
    n_rows = n_rows or DEFAULT_ROWS["tax"]
    rng = random.Random(seed)
    state_info = {}
    for index, state in enumerate(_STATES):
        rate = 5 + index  # distinct integer percentage per state
        single_exemp = 500 * rng.randint(4, 16)
        child_exemp = 500 * rng.randint(1, single_exemp // 500)
        state_info[state] = (rate, single_exemp, child_exemp)
    zip_info = {}
    zip_base = 10000
    for state in _STATES:
        for local in range(rng.randint(3, 6)):
            zip_code = zip_base
            zip_base += rng.randint(3, 9)
            city = f"{state}_City_{local}"
            zip_info[zip_code] = (city, state)
    zip_codes = list(zip_info)

    rows = []
    for _ in range(n_rows):
        zip_code = rng.choice(zip_codes)
        city, state = zip_info[zip_code]
        rate, single_exemp, child_exemp = state_info[state]
        salary = 1000 * rng.randint(20, 90)
        tax = (salary * rate // 100) // 100 * 100
        rows.append({
            "Name": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
            "Gender": rng.choice(["M", "F"]),
            "State": state,
            "Zip": zip_code,
            "City": city,
            "Salary": salary,
            "Rate": float(rate),
            "Tax": tax,
            "SingleExemp": single_exemp,
            "ChildExemp": child_exemp,
        })
    relation = Relation.from_records("tax", rows)
    return Dataset("tax", relation, golden_dcs("tax"),
                   "income-tax records with per-state rates and exemptions", seed)


def generate_stock(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic SP Stock dataset: daily OHLC prices per ticker."""
    n_rows = n_rows or DEFAULT_ROWS["stock"]
    rng = random.Random(seed)
    tickers = [f"TCK{index:02d}" for index in range(30)]
    dates = [f"2019-01-{day:02d}" for day in range(1, 29)]
    base_price = {ticker: 2 * rng.randint(15, 45) for ticker in tickers}
    quote_cache: dict[tuple[str, str], tuple[int, int, int, int]] = {}

    def quote(ticker: str, date: str) -> tuple[int, int, int, int]:
        # Prices live on an even-integer grid so that the OHLC columns share
        # enough values for the cross-attribute predicates (the 30% rule).
        if (ticker, date) not in quote_cache:
            local = random.Random(hash((ticker, date, seed)) & 0xFFFFFFFF)
            center = base_price[ticker] + 2 * local.randint(-5, 5)
            spread = 2 * local.randint(1, 5)
            low = max(2, center - spread)
            high = center + spread
            open_ = low + 2 * local.randint(0, (high - low) // 2)
            close = low + 2 * local.randint(0, (high - low) // 2)
            quote_cache[(ticker, date)] = (open_, close, high, low)
        return quote_cache[(ticker, date)]

    rows = []
    for _ in range(n_rows):
        ticker = rng.choice(tickers)
        date = rng.choice(dates)
        open_, close, high, low = quote(ticker, date)
        rows.append({
            "Ticker": ticker,
            "Date": date,
            "Open": open_,
            "Close": close,
            "High": high,
            "Low": low,
            "Volume": rng.randint(1000, 50000),
        })
    relation = Relation.from_records("stock", rows)
    return Dataset("stock", relation, golden_dcs("stock"),
                   "daily OHLC stock quotes", seed)


def generate_hospital(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Hospital dataset: providers, locations and quality measures."""
    n_rows = n_rows or DEFAULT_ROWS["hospital"]
    rng = random.Random(seed)
    zip_info = {}
    zip_base = 30000
    for state in _STATES[:12]:
        for local in range(3):
            zip_code = zip_base
            zip_base += rng.randint(2, 7)
            zip_info[zip_code] = (f"{state}_Town_{local}", state)
    zip_codes = list(zip_info)
    providers = {}
    for provider_id in range(10000, 10000 + max(20, n_rows // 4)):
        zip_code = rng.choice(zip_codes)
        providers[provider_id] = (
            f"{rng.choice(_LAST_NAMES)} Medical Center",
            zip_code,
            5550000 + provider_id,
        )
    provider_ids = list(providers)
    measures = {f"MC-{index:02d}": f"Measure {index:02d}" for index in range(20)}
    measure_codes = list(measures)

    rows = []
    for _ in range(n_rows):
        provider_id = rng.choice(provider_ids)
        name, zip_code, phone = providers[provider_id]
        city, state = zip_info[zip_code]
        code = rng.choice(measure_codes)
        rows.append({
            "Provider": provider_id,
            "Name": name,
            "City": city,
            "State": state,
            "Zip": zip_code,
            "Phone": phone,
            "MeasureCode": code,
            "MeasureName": measures[code],
            "StateAvg": f"{state}_{code}",
        })
    relation = Relation.from_records("hospital", rows)
    return Dataset("hospital", relation, golden_dcs("hospital"),
                   "hospital providers and quality measures", seed)


def generate_food(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Food Inspection dataset: licensed facilities and inspections."""
    n_rows = n_rows or DEFAULT_ROWS["food"]
    rng = random.Random(seed)
    zip_info = {}
    zip_base = 60600
    for state in _STATES[:8]:
        for local in range(4):
            zip_code = zip_base
            zip_base += rng.randint(2, 6)
            zip_info[zip_code] = (f"{state}_Burg_{local}", state)
    zip_codes = list(zip_info)
    facility_types = ["Restaurant", "Bakery", "Grocery", "School", "Hospital Cafeteria"]
    risks = ["Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"]
    licenses = {}
    for license_id in range(200000, 200000 + max(20, n_rows // 3)):
        zip_code = rng.choice(zip_codes)
        city, _state = zip_info[zip_code]
        address = f"{rng.randint(1, 999)} {rng.choice(_LAST_NAMES)} St, {city}"
        licenses[license_id] = (
            f"{rng.choice(_FIRST_NAMES)}'s {rng.choice(facility_types)}",
            address,
            zip_code,
            rng.choice(facility_types),
            rng.choice(risks),
        )
    license_ids = list(licenses)

    rows = []
    for _ in range(n_rows):
        license_id = rng.choice(license_ids)
        name, address, zip_code, facility_type, risk = licenses[license_id]
        city, state = zip_info[zip_code]
        rows.append({
            "License": license_id,
            "Name": name,
            "Address": address,
            "City": city,
            "State": state,
            "Zip": zip_code,
            "FacilityType": facility_type,
            "Risk": risk,
            "InspectionYear": rng.randint(2015, 2019),
        })
    relation = Relation.from_records("food", rows)
    return Dataset("food", relation, golden_dcs("food"),
                   "food-facility inspection records", seed)


def generate_airport(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Airport dataset: one row per airport observation."""
    n_rows = n_rows or DEFAULT_ROWS["airport"]
    rng = random.Random(seed)
    state_country = {state: "US" for state in _STATES}
    state_timezone = {state: -5 - (index % 4) for index, state in enumerate(_STATES)}
    airports = {}
    for index in range(max(20, n_rows // 2)):
        code = f"A{index:03d}"
        state = rng.choice(_STATES)
        airports[code] = (
            f"{rng.choice(_LAST_NAMES)} Field",
            f"{state}_Aero_{index % 5}_{state}",
            state,
            rng.randint(-900, 900),    # latitude in tenths of degrees
            rng.randint(-1800, 1800),  # longitude in tenths of degrees
            rng.randint(0, 9000),      # elevation in feet
        )
    codes = list(airports)

    rows = []
    for _ in range(n_rows):
        code = rng.choice(codes)
        name, city, state, latitude, longitude, elevation = airports[code]
        rows.append({
            "Code": code,
            "Name": name,
            "City": city,
            "State": state,
            "Country": state_country[state],
            "Latitude": latitude,
            "Longitude": longitude,
            "Elevation": elevation,
            "TimeZone": state_timezone[state],
        })
    relation = Relation.from_records("airport", rows)
    return Dataset("airport", relation, golden_dcs("airport"),
                   "airport master data", seed)


def generate_adult(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Adult (census) dataset."""
    n_rows = n_rows or DEFAULT_ROWS["adult"]
    rng = random.Random(seed)
    education_levels = [
        ("HS-grad", 9), ("Some-college", 10), ("Bachelors", 13),
        ("Masters", 14), ("Doctorate", 16), ("11th", 7), ("Assoc-voc", 11),
    ]
    workclasses = ["Private", "Self-emp", "Federal-gov", "State-gov", "Local-gov"]
    marital = ["Married", "Never-married", "Divorced", "Widowed"]
    reference_year = 2019

    rows = []
    for _ in range(n_rows):
        education, education_num = rng.choice(education_levels)
        age = rng.randint(18, 90)
        rows.append({
            "Age": age,
            "WorkClass": rng.choice(workclasses),
            "Education": education,
            "EducationNum": education_num,
            "MaritalStatus": rng.choice(marital),
            "Sex": rng.choice(["Male", "Female"]),
            "HoursPerWeek": rng.randint(10, 80),
            "BirthYear": reference_year - age,
        })
    relation = Relation.from_records("adult", rows)
    return Dataset("adult", relation, golden_dcs("adult"),
                   "census income records", seed)


def generate_flight(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic Flight dataset: scheduled flights with times and distances."""
    n_rows = n_rows or DEFAULT_ROWS["flight"]
    rng = random.Random(seed)
    airports = [f"P{index:02d}" for index in range(25)]
    airport_state = {airport: rng.choice(_STATES) for airport in airports}
    airlines = ["AA", "DL", "UA", "WN", "B6", "AS"]
    distance_cache: dict[tuple[str, str], int] = {}

    def distance(origin: str, dest: str) -> int:
        if (origin, dest) not in distance_cache:
            local = random.Random(hash((origin, dest, seed)) & 0xFFFFFFFF)
            distance_cache[(origin, dest)] = local.randint(200, 2800)
        return distance_cache[(origin, dest)]

    flights = {}
    for index in range(max(30, n_rows // 5)):
        flight_number = f"F{index:04d}"
        origin = rng.choice(airports)
        dest = rng.choice([airport for airport in airports if airport != origin])
        flight_distance = distance(origin, dest)
        # All times live on a one-hour grid so that departure and arrival
        # times (and actual vs scheduled durations) share enough values for
        # the cross-attribute predicates of the golden DCs even on small
        # generated instances (the 30% shared-values rule).
        scheduled = max(60, ((flight_distance // 8 + 40) // 60) * 60)
        elapsed = max(60, scheduled - 60 * rng.randint(0, 1))
        dep_time = 60 * rng.randint(5, max(6, (1380 - scheduled) // 60))
        arr_time = dep_time + elapsed
        flights[flight_number] = (
            rng.choice(airlines), origin, dest, flight_distance,
            dep_time, arr_time, elapsed, scheduled,
        )
    flight_numbers = list(flights)

    rows = []
    for _ in range(n_rows):
        flight_number = rng.choice(flight_numbers)
        airline, origin, dest, flight_distance, dep, arr, elapsed, scheduled = flights[flight_number]
        rows.append({
            "Flight": flight_number,
            "Airline": airline,
            "Origin": origin,
            "Dest": dest,
            "OriginState": airport_state[origin],
            "DestState": airport_state[dest],
            "DepTime": dep,
            "ArrTime": arr,
            "Elapsed": elapsed,
            "Scheduled": scheduled,
            "Distance": flight_distance,
        })
    relation = Relation.from_records("flight", rows)
    return Dataset("flight", relation, golden_dcs("flight"),
                   "scheduled flights with times and distances", seed)


def generate_voter(n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Synthetic NCVoter dataset: voter registrations."""
    n_rows = n_rows or DEFAULT_ROWS["voter"]
    rng = random.Random(seed)
    reference_year = 2019
    county_state = {}
    for index, state in enumerate(_STATES[:10]):
        for local in range(3):
            county_state[f"{state}_County_{local}"] = state
    counties = list(county_state)
    zip_info = {}
    zip_base = 27000
    for county in counties:
        for _ in range(3):
            zip_code = zip_base
            zip_base += rng.randint(2, 5)
            zip_info[zip_code] = county
    zip_codes = list(zip_info)

    voters = {}
    for voter_id in range(500000, 500000 + max(20, int(n_rows * 0.8))):
        birth_year = rng.randint(1930, reference_year - 18)
        zip_code = rng.choice(zip_codes)
        voters[voter_id] = (
            rng.choice(_FIRST_NAMES),
            rng.choice(_LAST_NAMES),
            rng.choice(["M", "F"]),
            birth_year,
            reference_year - birth_year,
            zip_code,
            rng.choice(["Active", "Inactive"]),
            rng.randint(birth_year + 18, reference_year),
        )
    voter_ids = list(voters)

    rows = []
    for _ in range(n_rows):
        voter_id = rng.choice(voter_ids)
        first, last, gender, birth_year, age, zip_code, status, reg_year = voters[voter_id]
        county = zip_info[zip_code]
        rows.append({
            "VoterId": voter_id,
            "FirstName": first,
            "LastName": last,
            "Gender": gender,
            "Age": age,
            "BirthYear": birth_year,
            "RegYear": reg_year,
            "County": county,
            "State": county_state[county],
            "Zip": zip_code,
            "Status": status,
        })
    relation = Relation.from_records("voter", rows)
    return Dataset("voter", relation, golden_dcs("voter"),
                   "voter registration records", seed)


_GENERATORS: dict[str, Callable[..., Dataset]] = {
    "tax": generate_tax,
    "stock": generate_stock,
    "hospital": generate_hospital,
    "food": generate_food,
    "airport": generate_airport,
    "adult": generate_adult,
    "flight": generate_flight,
    "voter": generate_voter,
}


def generate_dataset(name: str, n_rows: int | None = None, seed: int = 0) -> Dataset:
    """Generate one of the eight datasets by name."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; expected one of {sorted(_GENERATORS)}"
        ) from None
    return generator(n_rows=n_rows, seed=seed)
