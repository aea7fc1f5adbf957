-- Clean queries over examples/sql/schema.sql: `repro lint` must report no
-- errors here (CI runs exactly that).

SELECT o.site, s.region, o.species, o.biomass
FROM observations o
JOIN sites s ON o.site = s.site
WHERE o.biomass > 10.0
ORDER BY o.biomass DESC;

SELECT t.site, t.total_biomass
FROM site_totals t
WHERE t.n > 1;

WITH heavy AS (
    SELECT o.site, o.species, o.biomass
    FROM observations o
    WHERE o.biomass >= 10.0
)
SELECT h.site, COUNT(*) AS heavy_species
FROM heavy h
GROUP BY h.site;

SELECT s.region, AVG(o.biomass) AS mean_biomass
FROM observations o
JOIN sites s ON o.site = s.site
GROUP BY s.region
HAVING COUNT(*) >= 1;

-- Every column of sites, in order: the projection is an identity, and the
-- qualified sort key is not an output name.
SELECT s.site, s.region, s.latitude, s.longitude
FROM sites s
ORDER BY s.latitude DESC;
